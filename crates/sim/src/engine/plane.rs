//! The parallel window executor: the sharded engine's lanes advanced on
//! worker threads.
//!
//! # Shape
//!
//! `Sim::drive_parallel` splits the machine into the same contiguous
//! lanes as the serial sharded driver (`crate::shard`), but materializes
//! each lane as a complete per-lane [`Sim`] owning that lane's slice of
//! every per-processor array (the offset-indexed `super::Off` vectors).
//! All engine methods — `advance`, `pump_lane`, the fault layer, every
//! observability hook — run unchanged on the lane Sims; nothing in the
//! per-event hot path knows it is running under a thread.
//!
//! Within one lookahead window `[t0, t0 + W)` the lanes are causally
//! independent (see the window bound proof in `crate::shard`), so the
//! coordinator hands every lane to a worker thread and waits at a window
//! barrier. Lanes are assigned statically (`lane % workers`) and jobs are
//! published through a generation-counted atomic, so each round is one
//! release/acquire handshake — no queues, no work stealing, nothing that
//! could reorder work between runs.
//!
//! # Why the merged schedule is bit-identical for any worker count
//!
//! Everything a lane does is a pure function of its own state plus the
//! window inputs the coordinator hands it, and the coordinator is
//! single-threaded:
//!
//! * **Same partition, same windows.** The lane partition, window start
//!   `t0` (min over lane minima and the pending release), and width `W`
//!   are computed exactly as in the serial driver, from lane state that
//!   is itself deterministic by induction.
//! * **Cross-lane sends stage in outboxes.** A send whose destination
//!   lies outside the lane's range diverts to the lane's `Outbox`; its
//!   source-canonical sequence (`(src + 1) << 36 | pctr`) is drawn at the
//!   same point in the source's execution as a local arrival's, so the
//!   key — and therefore the destination's processing order — is the one
//!   a serial run would have used. The coordinator drains outboxes at the
//!   window barrier in `(src_lane, arrival, seq)` order and delivers into
//!   destination lanes before the next rebase, which reproduces the
//!   serial far-spill accounting as well.
//! * **Barriers release on the parent.** Lane Sims log barrier deltas;
//!   the coordinator drains them every round, replays them canonically
//!   (`Sim::barrier_release_time`), writes the single lifecycle record on
//!   the parent, and runs the three release phases lane-by-lane — the
//!   exact serial sequence.
//! * **Streaming emissions stage per lane.** Lane StreamStates carry an
//!   always-pass sampler in front of a `StageSink` buffer; after every
//!   round the coordinator replays the staged records through the
//!   *parent's* real sampler and sink in lane order, which equals the
//!   serial emission order (the serial round visits lanes in index
//!   order). Sampler state therefore advances in serial order and the
//!   sink output is byte-identical.
//! * **Retained logs merge by id remap.** Per-lane dense record ids get
//!   per-lane bases added at the merge; causal references are remapped
//!   with the bases of the lane that owns the *citing* processor (a
//!   record's cause always cites a record homed on that processor's
//!   lane). `ObsLog::canonicalize` then renumbers exactly as it does for
//!   the serial sharded log. The old-id tiebreak matches the serial one
//!   whenever two records of one kind from the same processor never share
//!   a primary timestamp — guaranteed for `g >= 1` models (the presets);
//!   degenerate `g = 0` same-cycle double-sends could tie.
//!
//! The only intentional divergence from the serial sharded driver is the
//! event-budget check: lanes check their own counts against the global
//! budget and the coordinator checks the sum once per round, so a run
//! within a round of the budget may fail slightly later than serially.
//! The check is still deterministic in the worker count.

use super::{event_ord, EventKind, ObsState, Off, OutObs, Outbox, Sim, SimError, StreamState};
use crate::critpath::OnlineAgg;
use crate::message::Message;
use crate::obs::{BarrierRecord, Cause, ComputeRecord, MsgRecord, ObsSampling, TimerRecord};
use crate::trace::Span;
use logp_core::Cycles;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One lifecycle emission buffered by a lane during a window round,
/// replayed through the parent's sampler and sink at the barrier.
enum Staged {
    Msg(MsgRecord),
    Compute(ComputeRecord),
    Timer(TimerRecord),
    Barrier(BarrierRecord),
    Span(Span),
}

/// The staging sink installed on every lane StreamState: records append
/// to a per-lane buffer (behind a Mutex only to satisfy `ObsSink: Send`;
/// workers and coordinator never touch it concurrently) and the
/// coordinator flushes them in lane order.
struct StageSink(Arc<Mutex<Vec<Staged>>>);

impl crate::obs::ObsSink for StageSink {
    fn on_msg(&mut self, m: &MsgRecord) {
        self.0.lock().unwrap().push(Staged::Msg(*m));
    }
    fn on_compute(&mut self, c: &ComputeRecord) {
        self.0.lock().unwrap().push(Staged::Compute(*c));
    }
    fn on_barrier(&mut self, b: &BarrierRecord) {
        self.0.lock().unwrap().push(Staged::Barrier(*b));
    }
    fn on_timer(&mut self, t: &TimerRecord) {
        self.0.lock().unwrap().push(Staged::Timer(*t));
    }
    fn on_span(&mut self, s: &Span) {
        self.0.lock().unwrap().push(Staged::Span(*s));
    }
}

/// One lane's mutable slot: its Sim, the latest pump result, and the
/// wall time its worker spent executing jobs on it.
struct LaneCell {
    sim: Sim,
    pump: Result<Option<Cycles>, SimError>,
    wall_ns: u64,
}

/// One cross-lane message in flight between windows.
struct Delivery {
    time: Cycles,
    seq: u64,
    msg: Message,
    obs: OutObs,
}

// Job kinds published through `Ctrl::job` (low 8 bits; high bits are the
// generation counter).
const JOB_START_HANDLERS: u8 = 1;
const JOB_START_ADVANCE: u8 = 2;
const JOB_PUMP_FIRST: u8 = 3;
const JOB_PUMP: u8 = 4;
const JOB_REL_COLLECT: u8 = 5;
const JOB_REL_HANDLERS: u8 = 6;
const JOB_REL_ADVANCE: u8 = 7;
const JOB_EXIT: u8 = 0xFF;

/// The coordinator/worker handshake: one generation-counted job word plus
/// the job's parameters. Lane *data* synchronizes through the per-lane
/// Mutexes; these atomics only sequence the phases.
struct Ctrl {
    /// `(generation << 8) | kind`; a changed generation publishes a job.
    job: AtomicU64,
    /// Workers that have finished the current generation.
    done: AtomicU64,
    /// Window start (pump) or release instant (release phases).
    t0: AtomicU64,
    /// Window end (exclusive pump bound).
    t_end: AtomicU64,
    /// A worker panicked; the coordinator re-panics instead of spinning
    /// forever at the barrier.
    panicked: AtomicBool,
    /// The barrier cause released handlers cite (release phases).
    bcause: Mutex<Cause>,
}

impl Ctrl {
    fn new() -> Self {
        Ctrl {
            job: AtomicU64::new(0),
            done: AtomicU64::new(0),
            t0: AtomicU64::new(0),
            t_end: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
            bcause: Mutex::new(Cause::Start),
        }
    }

    fn publish(&self, gen: &mut u64, kind: u8, t0: Cycles, t_end: Cycles) {
        self.t0.store(t0, Ordering::Release);
        self.t_end.store(t_end, Ordering::Release);
        self.done.store(0, Ordering::Release);
        *gen += 1;
        self.job.store((*gen << 8) | kind as u64, Ordering::Release);
    }

    /// Spin until every worker finished the published job; returns the
    /// nanoseconds the coordinator waited (the window-barrier cost).
    fn await_workers(&self, nworkers: u64) -> u64 {
        let start = std::time::Instant::now();
        let mut spins = 0u32;
        while self.done.load(Ordering::Acquire) < nworkers {
            if self.panicked.load(Ordering::Acquire) {
                panic!("parallel window executor: a worker thread panicked");
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(4096) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        start.elapsed().as_nanos() as u64
    }
}

/// A worker's main loop: spin for the next job generation, run it on the
/// statically owned lanes (`lane % nworkers == me`), count in. Runs until
/// [`JOB_EXIT`].
fn worker_loop<const OBS: bool, const FAULTS: bool>(
    me: usize,
    nworkers: usize,
    cells: &[Mutex<LaneCell>],
    ctrl: &Ctrl,
) {
    let mut seen = 0u64;
    loop {
        let mut spins = 0u32;
        let job = loop {
            let j = ctrl.job.load(Ordering::Acquire);
            if j >> 8 != seen {
                break j;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(4096) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        };
        seen = job >> 8;
        let kind = (job & 0xFF) as u8;
        if kind == JOB_EXIT {
            ctrl.done.fetch_add(1, Ordering::AcqRel);
            return;
        }
        let t0 = ctrl.t0.load(Ordering::Acquire);
        let t_end = ctrl.t_end.load(Ordering::Acquire);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for li in (me..cells.len()).step_by(nworkers) {
                let mut guard = cells[li].lock().unwrap();
                let cell = &mut *guard;
                let start = std::time::Instant::now();
                match kind {
                    JOB_START_HANDLERS => cell.sim.start_handlers::<OBS, FAULTS>(),
                    JOB_START_ADVANCE => cell.sim.start_advances::<OBS, FAULTS, true>(),
                    JOB_PUMP_FIRST | JOB_PUMP => {
                        if kind == JOB_PUMP_FIRST {
                            cell.sim.lanes[0].cal.advance_to(t0);
                        }
                        cell.pump = cell.sim.pump_lane::<OBS, FAULTS>(0, t_end);
                    }
                    JOB_REL_COLLECT => cell.sim.barrier_release_collect(t0),
                    JOB_REL_HANDLERS => {
                        let bcause = *ctrl.bcause.lock().unwrap();
                        cell.sim.barrier_release_handlers::<OBS>(bcause);
                    }
                    JOB_REL_ADVANCE => cell.sim.barrier_release_advance::<OBS, FAULTS, true>(),
                    _ => unreachable!("unknown job kind"),
                }
                cell.wall_ns += start.elapsed().as_nanos() as u64;
            }
        }));
        if r.is_err() {
            ctrl.panicked.store(true, Ordering::Release);
            ctrl.done.fetch_add(1, Ordering::AcqRel);
            return;
        }
        ctrl.done.fetch_add(1, Ordering::AcqRel);
    }
}

impl Sim {
    /// Replay staged lane emissions (in lane order == serial order)
    /// through the parent's real sampler and sink.
    fn flush_stages(&mut self, stages: &[Arc<Mutex<Vec<Staged>>>]) {
        if stages.is_empty() {
            return;
        }
        let obs = self.obs.as_deref_mut().expect("stages imply observability");
        let st = obs.stream.as_deref_mut().expect("stages imply streaming");
        for stage in stages {
            let mut buf = std::mem::take(&mut *stage.lock().unwrap());
            for s in buf.drain(..) {
                match s {
                    Staged::Msg(rec) => {
                        if let Some(out) = st.sampler.offer_msg(rec) {
                            st.emitted += 1;
                            st.sink.on_msg(&out);
                        }
                    }
                    Staged::Compute(rec) => {
                        if st.sampler.pass_proc(rec.proc) {
                            st.emitted += 1;
                            st.sink.on_compute(&rec);
                        }
                    }
                    Staged::Timer(rec) => {
                        if st.sampler.pass_proc(rec.proc) {
                            st.emitted += 1;
                            st.sink.on_timer(&rec);
                        }
                    }
                    Staged::Barrier(rec) => {
                        if st.sampler.pass_proc(rec.last_proc) {
                            st.emitted += 1;
                            st.sink.on_barrier(&rec);
                        }
                    }
                    Staged::Span(sp) => {
                        if st.sampler.spans_enabled() && st.sampler.pass_proc(sp.proc) {
                            st.sink.on_span(&sp);
                        }
                    }
                }
            }
            // Hand the drained allocation back for the next round.
            let mut slot = stage.lock().unwrap();
            if slot.capacity() < buf.capacity() {
                *slot = buf;
            }
        }
    }

    /// Drain every lane's outbox at the window barrier and deliver the
    /// staged messages into their destination lanes, in canonical
    /// `(src_lane, arrival, seq)` order, exactly as the destination's
    /// own stash-and-schedule path would have (the sequence was drawn at
    /// the source, so the key is already the serial one). Runs before the
    /// next window's rebase so ring-vs-far placement matches the serial
    /// engine's mid-window pushes.
    fn exchange_outboxes<const OBS: bool>(&mut self, cells: &[Mutex<LaneCell>], per: usize) {
        let n = cells.len();
        let mut inbound: Vec<Vec<Delivery>> = (0..n).map(|_| Vec::new()).collect();
        let mut any = false;
        for cell in cells {
            let mut guard = cell.lock().unwrap();
            let out = guard
                .sim
                .out
                .as_deref_mut()
                .expect("lane Sims carry outboxes");
            if out.events.is_empty() {
                continue;
            }
            any = true;
            let mut events = std::mem::take(&mut out.events);
            let mut msgs = std::mem::take(&mut out.msgs);
            let mut obsv = std::mem::take(&mut out.obs);
            events.sort_unstable_by_key(|&(t, s, _)| (t, s));
            for (time, seq, idx) in events {
                let msg = msgs[idx as usize].take().expect("outbox slot occupied");
                let obs = if (idx as usize) < obsv.len() {
                    std::mem::take(&mut obsv[idx as usize])
                } else {
                    OutObs::default()
                };
                let dl = msg.dst as usize / per;
                inbound[dl].push(Delivery {
                    time,
                    seq,
                    msg,
                    obs,
                });
            }
        }
        if !any {
            return;
        }
        for (dl, list) in inbound.into_iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            let mut guard = cells[dl].lock().unwrap();
            let sim = &mut guard.sim;
            for d in list {
                let dst = d.msg.dst;
                let slot = sim.stash_msg_sharded(dst, d.msg);
                if OBS {
                    let obs = sim.obs.as_deref_mut().expect("OBS implies lane obs");
                    let OutObs { val, rec, infl } = d.obs;
                    let val = if obs.msg_log {
                        if let Some(st) = obs.stream.as_deref_mut() {
                            st.inflight.insert(*infl.expect("streaming outbox payload"))
                        } else {
                            let mut rec = *rec.expect("retained outbox payload");
                            let id = obs.log.msgs.len() as u64;
                            rec.id = id;
                            obs.log.msgs.push(rec);
                            id
                        }
                    } else {
                        val
                    };
                    let s = slot as usize;
                    if obs.msg_slab_obs.len() <= s {
                        obs.msg_slab_obs.resize(s + 1, 0);
                    }
                    obs.msg_slab_obs[s] = val;
                }
                sim.push_lane(dst, d.time, event_ord(0, d.seq), EventKind::Arrive(slot));
            }
        }
    }

    /// Build the per-lane Sims, moving this Sim's per-processor state
    /// into offset-indexed lane slices. Returns the lane cells and (when
    /// streaming) the per-lane stage buffers.
    #[allow(clippy::type_complexity)]
    fn build_lane_cells<const OBS: bool, const FAULTS: bool>(
        &mut self,
        per: usize,
        n: usize,
        streaming: bool,
        aggregate: bool,
    ) -> (Vec<Mutex<LaneCell>>, Vec<Arc<Mutex<Vec<Staged>>>>) {
        let p = self.model.p as usize;
        let mut procs = std::mem::replace(&mut self.procs, Off::from(Vec::new()))
            .into_vec()
            .into_iter();
        let mut scales = std::mem::take(&mut self.proc_scale).into_vec().into_iter();
        let mut cells = Vec::with_capacity(n);
        let mut stages = Vec::new();
        for first in (0..p).step_by(per) {
            let len = per.min(p - first);
            let stream = streaming.then(|| {
                let stage: Arc<Mutex<Vec<Staged>>> = Arc::new(Mutex::new(Vec::new()));
                stages.push(stage.clone());
                Box::new(StreamState::new(
                    Box::new(StageSink(stage)),
                    crate::obs::Sampler::new(ObsSampling::All),
                    aggregate.then(|| OnlineAgg::for_range(first, len, self.config.agg_grid)),
                    Off::with_base(vec![0; len], first),
                ))
            });
            let faults = self.faults.as_deref().filter(|_| FAULTS).map(|f| {
                Box::new(crate::faults::FaultState::for_range(
                    f.plan.clone(),
                    first,
                    len,
                ))
            });
            let obs =
                OBS.then(|| Box::new(ObsState::new(first..first + len, &self.config, stream)));
            let mut sim = Sim::assemble(
                self.model,
                self.config.clone(),
                Off::with_base(procs.by_ref().take(len).collect(), first),
                Off::with_base(scales.by_ref().take(len).collect(), first),
                SmallRng::seed_from_u64(self.config.seed),
                faults,
                obs,
            );
            sim.horizon = self.horizon;
            sim.capacity = self.capacity;
            sim.max_outstanding = self.max_outstanding;
            sim.hier = self.hier.clone();
            sim.out = Some(Box::new(Outbox::default()));
            sim.setup_lanes(len);
            cells.push(Mutex::new(LaneCell {
                sim,
                pump: Ok(None),
                wall_ns: 0,
            }));
        }
        (cells, stages)
    }

    /// Merge the finished lane Sims back into this Sim: per-processor
    /// arrays reassemble in lane order, scalar stats sum, retained
    /// lifecycle logs renumber with per-lane id bases, streaming state
    /// (in-flight records, armed timers, the online aggregate) folds into
    /// the parent stream.
    fn merge_lanes<const OBS: bool, const FAULTS: bool>(
        &mut self,
        cells: Vec<Mutex<LaneCell>>,
        per: usize,
        streaming: bool,
        mut parent_agg: Option<OnlineAgg>,
    ) {
        let n = cells.len();
        let p = self.model.p as usize;
        let mut procs = Vec::with_capacity(p);
        let mut scales = Vec::with_capacity(p);
        self.vitals.lane_events = Vec::with_capacity(n);
        self.vitals.lane_wall_ns = Vec::with_capacity(n);
        self.alive = 0;
        self.barrier_count = 0;
        // Per-lane retained-log id bases, filled in lane order; the cause
        // remap below needs the full table (a migrated cross-lane record
        // cites records homed on its *source's* lane).
        let mut bases: Vec<(u64, u64, u64)> = Vec::with_capacity(n);
        let mut lane_logs = Vec::with_capacity(n);
        for cell in cells {
            let cell = cell.into_inner().unwrap();
            let mut sim = cell.sim;
            procs.extend(std::mem::replace(&mut sim.procs, Off::from(Vec::new())).into_vec());
            scales.extend(std::mem::take(&mut sim.proc_scale).into_vec());
            self.stats.events += sim.stats.events;
            self.stats.total_msgs += sim.stats.total_msgs;
            self.stats.msgs_dropped += sim.stats.msgs_dropped;
            self.stats.msgs_duplicated += sim.stats.msgs_duplicated;
            self.stats.msgs_delayed += sim.stats.msgs_delayed;
            self.stats.procs_crashed += sim.stats.procs_crashed;
            self.stats.max_inflight_per_src = self
                .stats
                .max_inflight_per_src
                .max(sim.stats.max_inflight_per_src);
            self.stats.max_inflight_per_dst = self
                .stats
                .max_inflight_per_dst
                .max(sim.stats.max_inflight_per_dst);
            self.alive += sim.alive;
            self.barrier_count += sim.barrier_count;
            self.fold_queue_vitals(&sim.lanes[0].cal);
            if self.overflow.is_none() {
                self.overflow = sim.overflow.take();
            }
            self.vitals.lane_events.push(sim.vitals.lane_events[0]);
            self.vitals.lane_wall_ns.push(cell.wall_ns);
            self.vitals.arena_reallocs += sim.vitals.arena_reallocs;
            self.trace.spans.append(&mut sim.trace.spans);
            if FAULTS {
                let pf = self
                    .faults
                    .as_deref_mut()
                    .expect("FAULTS implies a fault plan");
                let lf = sim.faults.as_deref().expect("lane fault state");
                let base = sim.rings.base();
                for i in 0..sim.rings.len() {
                    pf.crashed[base + i] = lf.crashed[base + i];
                }
            }
            if OBS {
                let pobs = self.obs.as_deref_mut().expect("OBS implies obs state");
                let mut lobs = *sim.obs.take().expect("OBS implies lane obs");
                pobs.metrics.absorb(&lobs.metrics);
                if let Some(mut lst) = lobs.stream.take() {
                    let pst = pobs
                        .stream
                        .as_deref_mut()
                        .expect("lane streams imply a parent stream");
                    for m in lst.inflight.drain() {
                        pst.inflight.insert(m);
                    }
                    for t in lst.timers_live.drain() {
                        pst.timers_live.insert(t);
                    }
                    if let (Some(pa), Some(la)) = (parent_agg.as_mut(), lst.agg.take()) {
                        pa.absorb(la);
                    }
                } else if pobs.msg_log {
                    let prev = bases.last().copied().unwrap_or((0, 0, 0));
                    let prev_lens = lane_logs
                        .last()
                        .map(|l: &crate::obs::ObsLog| {
                            (
                                l.msgs.len() as u64,
                                l.computes.len() as u64,
                                l.timers.len() as u64,
                            )
                        })
                        .unwrap_or((0, 0, 0));
                    bases.push((
                        prev.0 + prev_lens.0,
                        prev.1 + prev_lens.1,
                        prev.2 + prev_lens.2,
                    ));
                    debug_assert!(lobs.log.barriers.is_empty());
                    lane_logs.push(lobs.log);
                }
            }
        }
        self.procs = Off::from(procs);
        self.proc_scale = Off::from(scales);
        if OBS {
            let pobs = self.obs.as_deref_mut().expect("OBS implies obs state");
            if streaming {
                if let Some(pst) = pobs.stream.as_deref_mut() {
                    pst.agg = parent_agg;
                }
            } else if pobs.msg_log {
                // Retained mode: append lane logs with their id bases and
                // remap causal references through the owning lane's bases.
                let remap = |c: &mut Cause, owner: usize| {
                    let (mb, cb, tb) = bases[owner / per];
                    match *c {
                        Cause::Msg(id) => *c = Cause::Msg(id + mb),
                        Cause::Compute(id) => *c = Cause::Compute(id + cb),
                        Cause::Retry(id) => *c = Cause::Retry(id + tb),
                        Cause::Start | Cause::Barrier(_) => {}
                    }
                };
                for (li, log) in lane_logs.into_iter().enumerate() {
                    let (mb, cb, tb) = bases[li];
                    for mut r in log.msgs {
                        r.id += mb;
                        // A send's cause cites the handler that issued it,
                        // which ran on the *source* processor's lane (the
                        // record itself is homed on the destination's).
                        remap(&mut r.cause, r.src as usize);
                        pobs.log.msgs.push(r);
                    }
                    for mut r in log.computes {
                        r.id += cb;
                        remap(&mut r.cause, r.proc as usize);
                        pobs.log.computes.push(r);
                    }
                    for mut r in log.timers {
                        r.id += tb;
                        remap(&mut r.cause, r.proc as usize);
                        pobs.log.timers.push(r);
                    }
                }
                // Barrier records were written by the coordinator on the
                // parent; their causes cite the binding entrant's lane.
                let mut barriers = std::mem::take(&mut pobs.log.barriers);
                for b in &mut barriers {
                    remap(&mut b.cause, b.last_proc as usize);
                }
                pobs.log.barriers = barriers;
            }
        }
    }

    /// The parallel window driver: the serial sharded loop with every
    /// per-lane pass executed by `workers` threads. See the module
    /// documentation for the structure and the determinism argument.
    #[inline(never)]
    pub(crate) fn drive_parallel<const OBS: bool, const FAULTS: bool>(
        &mut self,
        workers: u32,
    ) -> Result<(), SimError> {
        let (per, n) = self.lane_partition();
        let nworkers = (workers as usize).clamp(1, n);
        self.vitals.workers = nworkers as u32;
        let mut win = self.windows();
        // Streaming runs keep the parent's sampler and sink live (fed in
        // serial order by the stage flush); the parent's aggregate is
        // held out here so the lifecycle record at each release consults
        // the binding *lane's* aggregate instead.
        let mut streaming = false;
        let mut parent_agg: Option<OnlineAgg> = None;
        if OBS {
            if let Some(obs) = self.obs.as_deref_mut() {
                if let Some(st) = obs.stream.as_deref_mut() {
                    streaming = true;
                    parent_agg = st.agg.take();
                }
            }
        }
        let aggregate = parent_agg.is_some();
        let (cells, stages) = self.build_lane_cells::<OBS, FAULTS>(per, n, streaming, aggregate);
        if FAULTS {
            for (cp, t) in self.lane_crashes() {
                let sim = &mut cells[cp as usize / per].lock().unwrap().sim;
                sim.plant_crash::<OBS, true>(cp, t);
            }
        }
        let ctrl = Ctrl::new();
        let mut gen = 0u64;
        let completion = std::thread::scope(|s| -> Result<Cycles, SimError> {
            for me in 0..nworkers {
                let cells = &cells;
                let ctrl = &ctrl;
                s.spawn(move || worker_loop::<OBS, FAULTS>(me, nworkers, cells, ctrl));
            }
            let mut run = |this: &mut Sim, gen: &mut u64| -> Result<Cycles, SimError> {
                // One job on every lane, then the window barrier.
                let mut round = |this: &mut Sim, kind: u8, t0: Cycles, t_end: Cycles| {
                    ctrl.publish(gen, kind, t0, t_end);
                    this.vitals.barrier_wait_ns += ctrl.await_workers(nworkers as u64);
                };
                // Gather the lanes' barrier deltas and return the machine's
                // `(alive, entered)` counts for the quorum check.
                let quorum = |this: &mut Sim| {
                    let (mut alive, mut entered) = (0u32, 0u32);
                    for cell in &cells {
                        let sim = &mut cell.lock().unwrap().sim;
                        this.bdeltas.append(&mut sim.bdeltas);
                        alive += sim.alive;
                        entered += sim.barrier_count;
                    }
                    (alive, entered)
                };
                // Prologue: handlers (no emissions), then advances.
                round(this, JOB_START_HANDLERS, 0, 0);
                round(this, JOB_START_ADVANCE, 0, 0);
                this.flush_stages(&stages);
                // Prologue sends happen at t = 0, *before* the first
                // window's start — the `arrival >= t0 + W` bound does not
                // cover them, so their cross-lane arrivals can land inside
                // the first window and must be delivered before it pumps.
                this.exchange_outboxes::<OBS>(&cells, per);
                loop {
                    let (alive, entered) = quorum(this);
                    this.check_quorum(&mut win, alive, entered);
                    let next_event = cells
                        .iter()
                        .filter_map(|c| c.lock().unwrap().sim.lanes[0].cal.next_time())
                        .min();
                    let Some((t0, t_end)) = this.open_window(&mut win, next_event) else {
                        break;
                    };
                    let mut first = true;
                    loop {
                        let kind = if first { JOB_PUMP_FIRST } else { JOB_PUMP };
                        first = false;
                        round(this, kind, t0, t_end);
                        let mut progressed = false;
                        let mut err: Option<SimError> = None;
                        let mut events_sum = 0u64;
                        for cell in &cells {
                            let cell = &mut *cell.lock().unwrap();
                            match std::mem::replace(&mut cell.pump, Ok(None)) {
                                Ok(Some(t)) => {
                                    win.completion = win.completion.max(t);
                                    progressed = true;
                                }
                                Ok(None) => {}
                                Err(e) => {
                                    err.get_or_insert(e);
                                }
                            }
                            events_sum += cell.sim.stats.events;
                        }
                        if let Some(e) = err {
                            return Err(e);
                        }
                        if events_sum > this.config.max_events {
                            return Err(SimError::MaxEventsExceeded {
                                limit: this.config.max_events,
                            });
                        }
                        this.flush_stages(&stages);
                        let (alive, entered) = quorum(this);
                        this.check_quorum(&mut win, alive, entered);
                        if let Some(t_rel) = win.release_due(t_end) {
                            // The serial release sequence: lifecycle
                            // record on the parent, then the three
                            // phases across all lanes in order.
                            this.now = t_rel;
                            let bcause = if OBS {
                                this.record_barrier_release()
                            } else {
                                Cause::Start
                            };
                            if OBS && aggregate {
                                if let Cause::Barrier(id) = bcause {
                                    this.barrier_agg_split(&cells, per, id, t_rel);
                                }
                            }
                            *ctrl.bcause.lock().unwrap() = bcause;
                            round(this, JOB_REL_COLLECT, t_rel, t_end);
                            this.flush_stages(&stages);
                            round(this, JOB_REL_HANDLERS, t_rel, t_end);
                            round(this, JOB_REL_ADVANCE, t_rel, t_end);
                            this.flush_stages(&stages);
                            // The parent's deltas predate the release
                            // and are consumed. Entries pushed by the
                            // release handlers themselves (a processor
                            // can re-enter the next round, or halt,
                            // inside `on_barrier_release`) are still
                            // parked in the cells; they belong to the
                            // next round's replay, so they are kept
                            // and the baseline backs out their
                            // alive-deltas.
                            this.bdeltas.clear();
                            let lanes =
                                cells.iter().map(|c| c.lock().unwrap().sim.alive_baseline());
                            win.released(t_rel, lanes.sum());
                            progressed = true;
                        }
                        if !progressed {
                            break;
                        }
                    }
                    this.exchange_outboxes::<OBS>(&cells, per);
                }
                let rings = cells
                    .iter()
                    .map(|c| c.lock().unwrap().sim.last_ring_release());
                Ok(win.completion.max(rings.max().unwrap_or(0)))
            };
            let result = run(self, &mut gen);
            ctrl.publish(&mut gen, JOB_EXIT, 0, 0);
            ctrl.await_workers(nworkers as u64);
            result
        })?;
        self.merge_lanes::<OBS, FAULTS>(cells, per, streaming, parent_agg);
        self.now = completion;
        self.canonicalize_results();
        Ok(())
    }

    /// The aggregate half of a barrier release under streaming + online
    /// aggregation: the parent's `record_barrier_release` skipped its
    /// (held-out) aggregate, so the binding entrant's lane attributes the
    /// release window and every other lane learns the released cumulative
    /// (so later commands citing this barrier resolve lane-locally).
    fn barrier_agg_split(&mut self, cells: &[Mutex<LaneCell>], per: usize, id: u64, t_rel: Cycles) {
        let (last_proc, submit, enter, cause) = self
            .obs
            .as_deref()
            .expect("streaming implies obs")
            .barrier_last;
        let rec = BarrierRecord {
            id,
            last_proc,
            submit,
            enter,
            release: t_rel,
            cause,
        };
        let bl = last_proc as usize / per;
        let cum = {
            let cell = &mut *cells[bl].lock().unwrap();
            cell.sim
                .obs
                .as_deref_mut()
                .and_then(|o| o.stream.as_deref_mut())
                .and_then(|st| st.agg.as_mut())
                .expect("aggregate lanes carry aggregates")
                .on_barrier_release(&rec)
        };
        for (li, cell) in cells.iter().enumerate() {
            if li == bl {
                continue;
            }
            let cell = &mut *cell.lock().unwrap();
            if let Some(agg) = cell
                .sim
                .obs
                .as_deref_mut()
                .and_then(|o| o.stream.as_deref_mut())
                .and_then(|st| st.agg.as_mut())
            {
                agg.on_barrier_external(cum);
            }
        }
    }
}
