//! The discrete-event engine implementing LogP execution semantics.
//!
//! Normative timing rules (calibrated against the paper's Figure 3; see
//! DESIGN.md):
//!
//! * a send requested at local time `t` starts at
//!   `s = max(t, last_send_start + g)` provided the capacity constraint
//!   admits it, occupies the processor during `[s, s+o)`, and the message
//!   arrives at `s + o + L'` with `L - jitter <= L' <= L`;
//! * at most `⌈L/g⌉` messages may be in transit from any processor or to
//!   any processor; a send that would exceed either bound stalls the
//!   sender (busy, accounted as stall) until an arrival frees a slot;
//! * a reception starts at `r = max(arrival, processor_free,
//!   last_recv_start + g)`, occupies `[r, r+o)`, and the program handler
//!   observes the message at `r + o`;
//! * commands issued by a program execute in FIFO order; receptions are
//!   serviced only while the command queue is empty (the processor is a
//!   single sequential execution unit);
//! * `compute(c)` occupies the processor for exactly `c` cycles (perturbed
//!   if drift or skew is configured);
//! * every jitter, drift and skew draw is the counter-mode rule
//!   [`logp_core::rng::noise`], keyed by the drawing processor and its
//!   count of earlier draws, so it does not depend on the event order.
//!
//! The engine is single-threaded and bit-deterministic for a given
//! `(programs, model, config)` triple: same-cycle events are ordered by
//! (class, sequence number) — see [`calendar`] for the queue's contract.

use crate::config::SimConfig;
use crate::critpath::{OnlineAgg, OpenSpan, WindowStart};
use crate::faults::FaultState;
use crate::message::{Data, Message};
use crate::metrics::{CounterId, GaugeId, HistId, MetricsRegistry, PPK_SCALE};
use crate::obs::{
    BarrierRecord, Cause, ComputeRecord, MsgRecord, NullSink, ObsLog, ObsSampling, ObsSink,
    RetainSink, Sampler, TimerRecord, UNSET,
};
use crate::process::{Command, Ctx, Process};
use crate::trace::{Activity, ProcStats, SimStats, Span, Trace};
use logp_core::hier::Hierarchy;
use logp_core::rng::{noise, stream};
use logp_core::{Cycles, LogP, ProcId};
use std::collections::VecDeque;

pub mod calendar;
pub mod inline;
pub mod shard;

use calendar::Calendar;
use inline::{CmdQueue, CmdSlab, Head, SrcRing};

/// Latest instant a run may reach. Half the `u64` range, so no sum of a
/// few in-range terms — and none of the calendar's slot arithmetic — can
/// wrap.
pub const TIME_LIMIT: Cycles = Cycles::MAX / 2;

/// Errors terminating a simulation abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event budget was exhausted (runaway program).
    MaxEventsExceeded { limit: u64 },
    /// The machine went quiescent while processors still had unexecuted
    /// commands or were waiting in a barrier that can never release.
    Deadlock { stuck: Vec<ProcId> },
    /// A streaming observability sink failed to create, write, or flush
    /// its output (the simulation itself completed).
    Sink(String),
    /// Processor `proc`, at cycle `now`, reached a `command` (`cycles`
    /// long, where it has a duration) that would carry simulated time
    /// past [`TIME_LIMIT`].
    TimeOverflow {
        proc: ProcId,
        now: Cycles,
        command: &'static str,
        cycles: Cycles,
    },
    /// Processor `proc`, at cycle `now`, reached a `command` that streams
    /// words at the LogGP gap `G` on a machine configured without one
    /// ([`SimConfig::with_big_g`]).
    MissingBigG {
        proc: ProcId,
        now: Cycles,
        command: &'static str,
    },
    /// The fault plan crash-stops processor `proc`, which a machine of
    /// `p` processors does not have.
    CrashOutOfRange { proc: ProcId, p: u32 },
    /// At cycle `now` the run scheduled more events than its same-cycle
    /// keys can order: `limit` = 2^56 events a run on the classic engine
    /// (`proc` is `None`), or 2^36 a processor on the lanes (`proc`).
    KeysExhausted {
        proc: Option<ProcId>,
        now: Cycles,
        limit: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::MaxEventsExceeded { limit } => {
                write!(f, "simulation exceeded the event budget of {limit}")
            }
            SimError::Deadlock { stuck } => {
                write!(
                    f,
                    "simulation deadlocked with processors {stuck:?} still holding work"
                )
            }
            SimError::Sink(msg) => {
                write!(f, "streaming observability sink failed: {msg}")
            }
            SimError::TimeOverflow {
                proc,
                now,
                command,
                cycles,
            } => write!(
                f,
                "simulated time overflow: `{command}` ({cycles} cycles) on processor {proc} \
                 at cycle {now} would pass the limit of {TIME_LIMIT} cycles"
            ),
            SimError::MissingBigG { proc, now, command } => write!(
                f,
                "`{command}` on processor {proc} at cycle {now} needs the LogGP gap G, \
                 which this machine does not define (SimConfig::with_big_g)"
            ),
            SimError::CrashOutOfRange { proc, p } => {
                write!(f, "fault plan crashes processor {proc} but P = {p}")
            }
            SimError::KeysExhausted { proc, now, limit } => {
                let whose = proc.map_or("the run".to_string(), |p| format!("processor {p}"));
                write!(
                    f,
                    "{whose} scheduled more than {limit} events by cycle {now}, \
                     past what the event keys can order"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Results of a completed run.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    pub stats: SimStats,
    pub trace: Trace,
    /// Message/compute/barrier lifecycle log (empty unless
    /// `SimConfig::record_msg_log`; stays empty when a streaming sink
    /// is configured — records flow to the sink instead).
    pub obs: ObsLog,
    /// Counters, gauges, and histograms (empty unless
    /// `SimConfig::record_metrics`).
    pub metrics: MetricsRegistry,
    /// Online o/g/L/compute/stall/retry aggregate (present iff
    /// `SimConfig::aggregate`).
    pub aggregate: Option<crate::critpath::ObsAggregate>,
    /// Host-side engine self-telemetry (wall time, lane loads,
    /// lookahead-window stats). Host-dependent, so excluded from
    /// equality.
    pub vitals: crate::metrics::EngineVitals,
}

/// Equality over the *simulated* outcome only: vitals measure the host
/// execution (wall clock, lane scheduling) and legitimately differ
/// between bit-identical runs.
impl PartialEq for SimResult {
    fn eq(&self, other: &Self) -> bool {
        self.stats == other.stats
            && self.trace == other.trace
            && self.obs == other.obs
            && self.metrics == other.metrics
            && self.aggregate == other.aggregate
    }
}

impl Eq for SimResult {}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// A message leaves the capacity window: the model counts a message as
    /// "in transit" for exactly its network flight time `L'` starting at
    /// injection, so per-endpoint occupancy of a stall-free `g`-spaced
    /// stream is exactly `⌈L/g⌉` — the model's capacity.
    Release { src: ProcId, dst: ProcId },
    /// A message reaches its destination's network interface. The event
    /// names the slab slot the message has held since injection and keeps
    /// until delivery ([`Parked`]); the payload itself never rides in the
    /// queue, whose per-cycle sort moves every byte of an event.
    Arrive(MsgSlot),
    /// Send overhead complete; the sender may proceed.
    SendDone(ProcId),
    /// A `compute` command finished.
    ComputeDone(ProcId, u64),
    /// Reception overhead complete; deliver to the program.
    RecvDone(ProcId),
    /// All processors entered the barrier; release them.
    BarrierRelease,
    /// A program timer elapsed; run `on_timer` with the token.
    TimerFire(ProcId, u64),
    /// A scheduled crash-stop failure from the fault plan.
    Crash(ProcId),
    /// Re-examine a processor that deferred progress to this time.
    Wake(ProcId),
}

/// Names a message from injection to delivery: its index in the classic
/// engine's [`Sim::msg_slab`], or `index * lanes + lane` into the
/// destination lane's slab (interleaved, so observability side-arrays
/// stay dense across lanes).
type MsgSlot = u32;

/// No slot: the end of an inbox chain, an empty inbox, no reception.
const NO_SLOT: MsgSlot = MsgSlot::MAX;

/// A message's one home from injection to delivery: its fields flat
/// beside the inbox link, 48 bytes, assembled into a [`Message`] once, for
/// the handler.
struct Parked {
    /// Moved out once, at delivery (or dropped with a dead interface); a
    /// free slot keeps [`Data::Empty`].
    data: Data,
    /// When the message reaches its destination's interface.
    arrival: Cycles,
    src: ProcId,
    dst: ProcId,
    tag: u32,
    /// The arrival behind this one in the destination's inbox.
    next: MsgSlot,
}

/// Every message between injection and delivery, pre-sized by the engine
/// that owns it. Slots recycle through `free`, so steady-state traffic
/// allocates nothing.
#[derive(Default)]
struct MsgSlab {
    slots: Vec<Parked>,
    free: Vec<MsgSlot>,
}

impl MsgSlab {
    /// Sized from the processors it serves so million-processor runs do
    /// one allocation per arena instead of doubling growth: a slot is held
    /// from injection to delivery, in-flight messages are bounded by the
    /// per-source window when capacity is enforced, and the collectives
    /// top out near one message per processor plus slack when it is not.
    fn for_procs(procs: usize) -> Self {
        MsgSlab {
            slots: Vec::with_capacity(2 * procs + 16),
            free: Vec::with_capacity(2 * procs + 16),
        }
    }
}

impl EventKind {
    /// Same-timestamp ordering class: arrivals first (so capacity slots
    /// freed at time `t` are visible to sends attempted at `t`), then
    /// completions, then wakes.
    fn class(&self) -> u8 {
        match self {
            // Crashes share the arrivals class but are scheduled up front,
            // so their lower sequence numbers order them before any
            // same-cycle arrival: a message reaching a processor at its
            // crash cycle is already lost.
            EventKind::Release { .. } | EventKind::Arrive(_) | EventKind::Crash(_) => 0,
            EventKind::SendDone(_)
            | EventKind::ComputeDone(..)
            | EventKind::RecvDone(_)
            | EventKind::TimerFire(..)
            | EventKind::BarrierRelease => 1,
            EventKind::Wake(_) => 2,
        }
    }
}

/// Classic sequence numbers stay below this, the low 56 bits of an event
/// order; a run that needs more fails with [`SimError::KeysExhausted`].
const SEQ_LIMIT: u64 = 1 << 56;

/// The lanes' per-processor counters stay below this, the low 36 bits of
/// a canonical key; likewise a typed error past it.
const PCTR_LIMIT: u64 = 1 << 36;

/// Within-cycle event order: `class` in the top 8 bits, sequence number
/// in the low 56 (an event's time is its calendar slot).
fn event_ord(class: u8, seq: u64) -> u64 {
    debug_assert!(seq < SEQ_LIMIT, "event sequence overflow");
    (class as u64) << 56 | seq
}

fn ord_seq(ord: u64) -> u64 {
    ord & ((1 << 56) - 1)
}

/// What an event reads of a processor, and nothing else: accounting
/// accumulates in [`SimStats::procs`], and an inbox is a chain through the
/// message slab, not a buffer of its own.
struct ProcState {
    /// The loaded program. `None` only transiently, while a handler is
    /// executing (the program is detached so the handler can borrow
    /// engine state without aliasing).
    program: Option<Box<dyn Process>>,
    /// One command in place, a byte string only for a second behind it.
    cmds: CmdQueue,
    /// The inbox: arrived messages, oldest first, chained through
    /// [`Parked::next`] from `head` ([`NO_SLOT`] when empty) to `tail`
    /// (meaningless when empty). A plain FIFO, because arrivals reach it
    /// in the order receptions take them — see [`Sim::link_arrival`].
    head: MsgSlot,
    tail: MsgSlot,
    /// Message currently paying reception overhead.
    receiving: MsgSlot,
    /// Time the processor becomes free.
    busy_until: Cycles,
    /// Earliest start of the next send (gap constraint).
    next_send_slot: Cycles,
    /// Earliest start of the next reception (gap constraint).
    next_recv_slot: Cycles,
    /// An engine event for this processor is outstanding.
    engaged: bool,
    halted: bool,
    in_barrier: bool,
    barrier_entered_at: Cycles,
    /// Queued in a destination's capacity waiting list.
    waiting_on_dst: bool,
    /// Blocked on own source-side capacity.
    waiting_on_src: bool,
    /// When the current capacity stall began; [`UNSET`] outside one.
    stall_since: Cycles,
}

impl ProcState {
    fn new(program: Box<dyn Process>) -> Self {
        ProcState {
            program: Some(program),
            cmds: CmdQueue::default(),
            head: NO_SLOT,
            tail: NO_SLOT,
            receiving: NO_SLOT,
            busy_until: 0,
            next_send_slot: 0,
            next_recv_slot: 0,
            engaged: false,
            halted: false,
            in_barrier: false,
            barrier_entered_at: 0,
            waiting_on_dst: false,
            waiting_on_src: false,
            stall_since: UNSET,
        }
    }

    /// A capacity stall begins now, unless one is already running.
    fn stall(&mut self, now: Cycles) {
        if self.stall_since == UNSET {
            self.stall_since = now;
        }
    }
}

/// One event lane of the sharded engine (`crate::shard`): a contiguous
/// block of processors with its own event queue and message slab. The
/// classic path never constructs these.
struct Lane {
    cal: Calendar<EventKind>,
    /// Messages injected toward this lane's processors and not yet
    /// delivered (kept in the *destination's* lane, so arrivals, inbox
    /// chains and receptions stay lane-local).
    slab: MsgSlab,
}

impl Lane {
    /// A lane of `procs` processors with a `span`-cycle calendar, arenas
    /// pre-sized so the standard collectives never regrow them.
    fn new(span: Cycles, procs: usize) -> Self {
        Lane {
            cal: Calendar::new(span, procs + 16),
            slab: MsgSlab::for_procs(procs),
        }
    }
}

/// One barrier-relevant state change, logged by the sharded engine during
/// a window pass and replayed in canonical `(time, proc)` order by the
/// window driver to find the instant the barrier completed.
#[derive(Debug, Clone)]
struct BarrierDelta {
    t: Cycles,
    proc: ProcId,
    /// Change to the entered-count (`+1` on entry, `-1` when an entrant
    /// crashes out).
    dcount: i32,
    /// Change to the alive-count (`-1` on halt or crash).
    dalive: i32,
    /// `(cause, submit)` of a barrier entry, for the lifecycle record.
    meta: Option<(Cause, Cycles)>,
}

/// Gauge handles, allocated only when `SimConfig::metrics_grid > 0`.
struct GaugeSet {
    inflight_total: GaugeId,
    ready_cmds: GaugeId,
    inbox_depth: GaugeId,
    util_ppk: GaugeId,
    /// One in-flight gauge per destination processor.
    per_dst: Vec<GaugeId>,
}

/// The record pipeline of a lifecycle-logged run: every message, compute,
/// timer and barrier record is numbered here, held while in progress, and
/// handed to the one sink when complete — as is every activity span. What
/// the sink does with them (retain them for `SimResult`, write a file,
/// nothing) is its business; the engine has one body per hook.
struct Records {
    sink: Box<dyn ObsSink>,
    sampler: Sampler,
    agg: Option<OnlineAgg>,
    /// Dense next-id counters, one per [`RecKind`]. The classic engine
    /// numbers every kind this way; the lanes only barriers (releases are
    /// globally ordered).
    next_dense: [u64; 4],
    /// Per-processor sequence counters, non-empty on a lane-engine run:
    /// record ids are then structured `((proc + 1) << 40) | per_proc_seq`
    /// instead of dense, so they depend only on processor-local
    /// execution order — never on the lane count.
    /// `ObsLog::canonicalize` renumbers either form identically.
    sctr: Vec<u64>,
    /// Messages injected but not yet delivered, at their message slab
    /// slot: the record so far plus the online aggregate's start of its
    /// reception window. A message keeps its slot from injection to
    /// delivery, so arrival, reception and delivery all find the record
    /// by indexing.
    inflight: Vec<Option<(MsgRecord, WindowStart)>>,
    /// Records of messages that died with their destination's interface:
    /// their slots recycle, so they wait here for the end of the run.
    undelivered: Vec<MsgRecord>,
    /// Per processor, its armed timers that have not fired, under the
    /// `TimerFire` event's sequence number. Equal timeouts fire in arming
    /// order, so a fire's entry is in front; otherwise it is among the
    /// few timers this one processor has armed.
    timer_obs: Vec<VecDeque<(u64, TimerRecord, WindowStart)>>,
    /// Per processor, one [`Run`] per handler invocation with commands
    /// still queued, oldest first, in lockstep with that processor's
    /// `cmds`. Lives here (not in `ProcState`) so the disabled engine
    /// keeps its lean layout.
    runs: Vec<VecDeque<Run>>,
    /// Per-processor [`ComputeRecord`] id of the compute in flight.
    cur_compute: Vec<u64>,
    /// `(proc, submit, enter, cause)` of the last barrier entrant, for
    /// the [`BarrierRecord`] written at release.
    barrier_last: (ProcId, Cycles, Cycles, Cause),
    /// Records offered to the sink (post-sampling).
    emitted: u64,
}

/// The commands one handler invocation queued, `(cause, submit, commands
/// left, window start)`: they share its cause, its submit instant and, for
/// the online aggregate, the start of their wait windows.
type Run = (Cause, Cycles, u32, WindowStart);

/// The lifecycle record kinds the pipeline numbers.
#[derive(Clone, Copy)]
enum RecKind {
    Msg,
    Compute,
    Timer,
    Barrier,
}

impl Records {
    /// The pipeline of a `p`-processor run into `sink`, numbering records
    /// the lane engine's way if it runs `on_lanes`.
    fn new(
        sink: Box<dyn ObsSink>,
        sampler: Sampler,
        agg: Option<OnlineAgg>,
        p: usize,
        on_lanes: bool,
    ) -> Self {
        Records {
            sink,
            sampler,
            agg,
            next_dense: [0; 4],
            sctr: vec![0; if on_lanes { p } else { 0 }],
            inflight: Vec::new(),
            undelivered: Vec::new(),
            timer_obs: vec![VecDeque::new(); p],
            runs: vec![VecDeque::new(); p],
            cur_compute: vec![0; p],
            barrier_last: (0, 0, 0, Cause::Start),
            emitted: 0,
        }
    }

    /// The id of the next `kind` record owned by processor `p` (messages
    /// key by source, computes and timers by owner, barriers by nobody).
    fn next_id(&mut self, kind: RecKind, p: ProcId) -> u64 {
        let (c, owner) = if !self.sctr.is_empty() && !matches!(kind, RecKind::Barrier) {
            (&mut self.sctr[p as usize], (p as u64 + 1) << 40)
        } else {
            (&mut self.next_dense[kind as usize], 0)
        };
        *c += 1;
        owner | (*c - 1)
    }

    /// One activity span: the online aggregate sees every non-empty one;
    /// the sink sees the sampled ones.
    #[inline(never)]
    fn span(&mut self, sp: &Span) {
        if sp.start >= sp.end {
            return;
        }
        if let Some(agg) = self.agg.as_mut() {
            agg.on_span(sp, !self.runs[sp.proc as usize].is_empty());
        }
        if self.sampler.spans_enabled() && self.sampler.pass_proc(sp.proc) {
            self.sink.on_span(sp);
        }
    }

    /// Offer a complete message record to the sink.
    fn emit_msg(&mut self, rec: &MsgRecord) {
        if self.sampler.offer_msg(rec) {
            self.emitted += 1;
            self.sink.on_msg(rec);
        }
    }

    /// Offer a complete timer record to the sink.
    fn emit_timer(&mut self, rec: &TimerRecord) {
        if self.sampler.pass_proc(rec.proc) {
            self.emitted += 1;
            self.sink.on_timer(rec);
        }
    }

    /// Close out the run into `res`: emit the records it left incomplete
    /// (undelivered messages after crashes or drops, timers cancelled by
    /// halt) sorted by id, release deferred sampling selections, finish
    /// the aggregate, flush the sink and take what it retained.
    fn finish(mut self, res: &mut SimResult) -> Result<(), String> {
        let mut msgs = std::mem::take(&mut self.undelivered);
        let left = std::mem::take(&mut self.inflight);
        msgs.extend(left.into_iter().flatten().map(|(m, _)| m));
        msgs.sort_unstable_by_key(|m| m.id);
        for m in &msgs {
            self.emit_msg(m);
        }
        let armed = std::mem::take(&mut self.timer_obs);
        let mut timers: Vec<TimerRecord> = armed.into_iter().flatten().map(|t| t.1).collect();
        timers.sort_unstable_by_key(|t| t.id);
        for t in &timers {
            self.emit_timer(t);
        }
        for m in self.sampler.drain() {
            self.emitted += 1;
            self.sink.on_msg(&m);
        }
        if let Some(agg) = self.agg.take() {
            let (agg, probes) = agg.finish(self.emitted);
            res.aggregate = Some(agg);
            res.vitals.agg_window_probes_max = probes;
        }
        self.sink.finish()?;
        (res.obs, res.trace) = self.sink.retained();
        Ok(())
    }
}

/// Engine-side observability state; boxed behind an `Option` so the
/// disabled path costs one null check per hook.
struct ObsState {
    metrics: MetricsRegistry,
    /// Counters/histograms enabled.
    metrics_on: bool,
    /// Gauge sampling period (`0` = off).
    grid: Cycles,
    next_sample: Cycles,
    c_injected: CounterId,
    c_delivered: CounterId,
    c_stall_episodes: CounterId,
    c_computes: CounterId,
    c_barrier_entries: CounterId,
    h_latency: HistId,
    h_stall: HistId,
    gauges: Option<GaugeSet>,
    /// Injection time per message slab slot, for the latency histogram
    /// of a run that keeps metrics without a lifecycle log (a logged
    /// run's record rides in [`Records::inflight`] at the same index).
    msg_slab_obs: Vec<Cycles>,
    /// The record pipeline; present iff the lifecycle log is on.
    records: Option<Box<Records>>,
}

impl ObsState {
    /// Observability state for a machine of `p` processors.
    fn new(p: usize, config: &SimConfig, records: Option<Box<Records>>) -> Self {
        let mut metrics = MetricsRegistry::default();
        let c_injected = metrics.counter("messages_injected");
        let c_delivered = metrics.counter("messages_delivered");
        let c_stall_episodes = metrics.counter("stall_episodes");
        let c_computes = metrics.counter("computes");
        let c_barrier_entries = metrics.counter("barrier_entries");
        let h_latency = metrics.histogram("msg_latency_cycles");
        let h_stall = metrics.histogram("stall_cycles");
        let gauges = (config.metrics_grid > 0).then(|| GaugeSet {
            inflight_total: metrics.gauge("inflight_total"),
            ready_cmds: metrics.gauge("ready_cmds"),
            inbox_depth: metrics.gauge("inbox_depth"),
            util_ppk: metrics.gauge("util_ppk"),
            per_dst: (0..p)
                .map(|d| metrics.gauge(&format!("inflight_dst_{d}")))
                .collect(),
        });
        ObsState {
            metrics,
            metrics_on: config.record_metrics,
            grid: config.metrics_grid,
            next_sample: 0,
            c_injected,
            c_delivered,
            c_stall_episodes,
            c_computes,
            c_barrier_entries,
            h_latency,
            h_stall,
            gauges,
            msg_slab_obs: Vec::new(),
            records,
        }
    }
}

/// Hierarchical-machine state ([`Sim::new_hier`]): the level structure
/// plus the per-level admission windows. When present, every message
/// pays the (L, o, g) of the src/dst pair's lowest common level, and the
/// classic engine's capacity windows are kept per level (stride-indexed
/// `level * P + proc` in `in_flight_from`/`in_flight_to`).
#[derive(Debug, Clone)]
struct HierState {
    h: Hierarchy,
    /// Per-level source/destination windows `⌈L_k/g_k⌉`
    /// (`u64::MAX` when capacity is unenforced).
    caps: Vec<u64>,
}

/// Whether a run of `model` under `config` goes to the windowed lane
/// engine (`crate::shard`): `shards >= 2` asks for it; `0` and `1` run the
/// classic single-queue engine. Gauge sampling (`metrics_grid > 0`) needs
/// globally time-ordered event processing, which windowed lanes
/// deliberately give up, so those runs stay on the classic engine.
/// Canonical keys budget 20 bits for `proc + 1`, which covers the
/// million-processor target with room to spare; anything larger falls
/// back to the classic engine rather than overflowing.
fn runs_on_lanes(model: &LogP, config: &SimConfig) -> bool {
    config.shards >= 2 && config.metrics_grid == 0 && model.p >= 2 && (model.p as u64) < (1 << 20)
}

/// A configured LogP machine with programs loaded on its processors.
pub struct Sim {
    model: LogP,
    config: SimConfig,
    procs: Vec<ProcState>,
    /// The classic engine's event queue. Like the rest of that engine's
    /// own state — admission windows, waiter lists, message slab — it is
    /// built by `drive` when the run starts (the hierarchy, and so the
    /// span and the depth, is known then) and stays empty on the lanes,
    /// which own theirs.
    cal: Calendar<EventKind>,
    seq: u64,
    now: Cycles,
    /// Latest `now` at which a processor may still act: [`TIME_LIMIT`]
    /// less the furthest any one step schedules ahead (set by `run`).
    horizon: Cycles,
    /// First thing that could not execute (a command overflowing
    /// simulated time, a bulk send without `G`, a fault plan crashing a
    /// processor the machine lacks); ends the run with this error.
    overflow: Option<SimError>,
    /// Messages in each endpoint's capacity window, one window per
    /// hierarchy level (stride-indexed `level * P + proc`).
    in_flight_from: Vec<u64>,
    in_flight_to: Vec<u64>,
    /// Messages injected toward each destination whose reception has not
    /// yet completed (network window + NI buffer occupancy).
    outstanding_to: Vec<u64>,
    dst_waiters: Vec<VecDeque<ProcId>>,
    /// Per-processor count of latency and drift draws so far, the `k`
    /// of [`logp_core::rng::noise`]; empty when `latency_jitter` and
    /// `drift_ppk` are both 0, as nothing is drawn.
    draws: Vec<u64>,
    /// Per-processor systematic compute scale in parts-per-1024 (1024 =
    /// nominal speed), drawn once at construction from `proc_skew_ppk`;
    /// empty — every processor nominal — when that is 0.
    proc_scale: Vec<i64>,
    trace: Trace,
    stats: SimStats,
    barrier_count: u32,
    /// Classic engine: a `BarrierRelease` is scheduled and has not fired
    /// (the lanes keep theirs in `Windows::pending_release`).
    release_pending: bool,
    alive: u32,
    capacity: u64,
    /// Reusable command buffer for handler invocations (hot path: one
    /// handler per event; reusing the allocation keeps the per-event cost
    /// allocation-free).
    cmd_scratch: Vec<Command>,
    /// The queued commands that own heap memory, parked by their
    /// processors' packed queues.
    cmd_slab: CmdSlab,
    /// Reusable buffer for draining a destination's capacity waiters
    /// (`Release` / `RecvDone`), so waking senders never allocates.
    waiter_scratch: Vec<ProcId>,
    /// Reusable buffer for the set of processors leaving a barrier.
    released_scratch: Vec<ProcId>,
    /// The classic engine's messages, injected and not yet delivered.
    msg_slab: MsgSlab,
    /// Max admissible outstanding messages per destination:
    /// capacity (network window) + NI buffer.
    max_outstanding: u64,
    /// Fault-injection state; `None` monomorphizes every fault branch
    /// away (`FAULTS` is `self.faults.is_some()`, fixed at [`Sim::run`]).
    faults: Option<Box<FaultState>>,
    /// Hierarchical machine description; `None` runs the flat model
    /// (`Sim::new`). Installed by [`Sim::new_hier`] — always, even for a
    /// one-level hierarchy, so the flat-projection identity tests
    /// exercise the per-pair parameter path end to end.
    hier: Option<Box<HierState>>,
    /// Observability state; `None` keeps every hook a single null check.
    /// Everything observability-owned (including message payload
    /// side-maps) lives behind this box so `Sim`'s own layout — and the
    /// cache lines the disabled hot path walks — matches the
    /// unobservable engine exactly.
    obs: Option<Box<ObsState>>,
    // ---- sharded lane engine state (`crate::shard`) ----
    // Everything below is built by the sharded driver and stays empty on
    // the classic path; the `SHARDED = false` monomorphizations never
    // touch it.
    /// Per-lane event queues and message slabs.
    lanes: Vec<Lane>,
    /// Processor → owning lane.
    lane_of: Vec<u32>,
    /// Per-processor counters feeding the low 36 bits of every canonical
    /// event key that processor issues, so keys depend only on
    /// processor-local execution order — never on how processors are
    /// partitioned into lanes.
    pctr: Vec<u64>,
    /// Per-source release-time rings: the network-release instants of the
    /// source's in-flight messages, kept sorted. Replaces the classic
    /// engine's `Release` events for source-capacity admission.
    rings: Vec<SrcRing>,
    /// Barrier deltas logged during the current window pass.
    bdeltas: Vec<BarrierDelta>,
    /// Host-side self-telemetry, filled in place as the run goes and
    /// handed to the result as is. Its `arena_reallocs` counts (debug
    /// builds only) growths of a pre-sized arena — overflow heap, message
    /// slab; calendar buckets grow by design — past its construction-time
    /// size: million-processor setup must allocate each arena exactly
    /// once, and tests pin this at zero for the standard collectives.
    vitals: crate::metrics::EngineVitals,
}

impl Sim {
    /// Create a machine; every processor initially runs
    /// [`crate::process::Passive`].
    pub fn new(model: LogP, config: SimConfig) -> Self {
        let mut config = config;
        // A sink or the online aggregate needs the lifecycle hooks live.
        if config.sink.is_some() || config.aggregate {
            config.record_msg_log = true;
        }
        // The critical-path analyzer attributes wait windows by scanning
        // activity spans, so the lifecycle log requires the trace; a
        // positive gauge grid requires the registry.
        if config.record_msg_log {
            config.record_trace = true;
        }
        if config.metrics_grid > 0 {
            config.record_metrics = true;
        }
        let p = model.p as usize;
        let skew = config.proc_skew_ppk as u64;
        let skewed = if skew == 0 { 0 } else { model.p as u64 };
        let proc_scale: Vec<i64> = (0..skewed)
            .map(|q| 1024 + noise(config.seed, stream::SKEW, q, 0, 2 * skew) as i64 - skew as i64)
            .collect();
        let noisy = config.latency_jitter != 0 || config.drift_ppk != 0;
        let draws = vec![0; if noisy { p } else { 0 }];
        let procs: Vec<ProcState> = (0..p)
            .map(|_| ProcState::new(Box::new(crate::process::Passive)))
            .collect();
        let faults = config
            .faults
            .clone()
            .map(|plan| Box::new(FaultState::new(plan, p)));
        let obs = (config.record_msg_log || config.record_metrics).then(|| {
            let records = config.record_msg_log.then(|| {
                let on_lanes = runs_on_lanes(&model, &config);
                let (sink, policy): (Box<dyn ObsSink>, _) = match &config.sink {
                    Some(spec) => (spec.build(), config.sampling.clone()),
                    None if config.aggregate => (Box::new(NullSink), config.sampling.clone()),
                    // A retained log keeps every record, whatever
                    // `sampling` says.
                    None => (Box::new(RetainSink::new(on_lanes)), ObsSampling::All),
                };
                let agg = config.aggregate.then(|| OnlineAgg::new(p, config.agg_grid));
                Box::new(Records::new(sink, Sampler::new(policy), agg, p, on_lanes))
            });
            Box::new(ObsState::new(p, &config, records))
        });
        // Everything an engine builds for itself when the run starts —
        // the classic queue, windows and slab, the lanes' calendars,
        // counters and rings — starts empty.
        let mut sim = Sim {
            model,
            alive: model.p,
            procs,
            cal: Calendar::default(),
            seq: 0,
            now: 0,
            horizon: TIME_LIMIT,
            overflow: None,
            in_flight_from: Vec::new(),
            in_flight_to: Vec::new(),
            outstanding_to: Vec::new(),
            dst_waiters: Vec::new(),
            draws,
            proc_scale,
            trace: Trace::default(),
            stats: SimStats {
                procs: vec![ProcStats::default(); p],
                ..SimStats::default()
            },
            barrier_count: 0,
            release_pending: false,
            capacity: u64::MAX,
            cmd_scratch: Vec::with_capacity(8),
            cmd_slab: CmdSlab::default(),
            waiter_scratch: Vec::new(),
            released_scratch: Vec::new(),
            msg_slab: MsgSlab::default(),
            max_outstanding: u64::MAX,
            faults,
            hier: None,
            obs,
            config,
            lanes: Vec::new(),
            lane_of: Vec::new(),
            pctr: Vec::new(),
            rings: Vec::new(),
            bdeltas: Vec::new(),
            vitals: Default::default(),
        };
        if sim.config.enforce_capacity {
            sim.set_capacity(model.capacity());
        }
        // A crash scheduled on a processor the machine does not have is
        // bad input, reported by `run`.
        let mut crashed = sim.config.faults.iter().flat_map(|plan| &plan.crashes);
        if let Some(&(proc, _)) = crashed.find(|c| c.0 >= model.p) {
            sim.fail(SimError::CrashOutOfRange { proc, p: model.p });
        }
        sim
    }

    /// Enforce capacity with a scalar admission window (the lanes' source
    /// ring, the NI-buffer base) of `window` messages; a machine that
    /// never calls this admits without bound.
    fn set_capacity(&mut self, window: u64) {
        let ni_buffer = self.config.ni_buffer.unwrap_or_else(|| window + 2);
        self.capacity = window;
        self.max_outstanding = window.saturating_add(ni_buffer);
    }

    /// Create a machine over a hierarchical description: every message
    /// pays the (L, o, g) of its src/dst pair's lowest common level
    /// (`docs/HIERARCHY.md`). The flat [`Sim::model`] is the hierarchy's
    /// outermost-level projection; a one-level hierarchy reproduces
    /// `Sim::new(h.flat_projection(), config)` cycle-exactly (pinned in
    /// `tests/hierarchy.rs`).
    ///
    /// Capacity semantics: the classic engine enforces each level's
    /// `⌈L_k/g_k⌉` window separately per endpoint; the sharded engine's
    /// source window uses the loosest level ([`Hierarchy::capacity`]) —
    /// the same documented relaxation as its flat destination-side rule.
    pub fn new_hier(h: &Hierarchy, config: SimConfig) -> Self {
        let mut sim = Sim::new(h.flat_projection(), config);
        let enforce = sim.config.enforce_capacity;
        let caps: Vec<u64> = (0..h.depth())
            .map(|k| {
                if enforce {
                    h.level_capacity(k)
                } else {
                    u64::MAX
                }
            })
            .collect();
        // The scalar window is the loosest level's; per-level admission
        // uses `caps`.
        if enforce {
            sim.set_capacity(h.capacity());
        }
        sim.hier = Some(Box::new(HierState { h: h.clone(), caps }));
        sim
    }

    /// The hierarchy this machine runs under, if built by
    /// [`Sim::new_hier`].
    pub fn hierarchy(&self) -> Option<&Hierarchy> {
        self.hier.as_deref().map(|hs| &hs.h)
    }

    /// The (L, o, g) a message from `src` to `dst` pays: the pair's
    /// lowest-common-level parameters under a hierarchy, the flat model
    /// otherwise.
    #[inline]
    fn pair_log(&self, src: ProcId, dst: ProcId) -> (Cycles, Cycles, Cycles) {
        match self.hier.as_deref() {
            Some(hs) => {
                let lv = hs.h.params_between(src, dst);
                (lv.l, lv.o, lv.g)
            }
            None => (self.model.l, self.model.o, self.model.g),
        }
    }

    /// The level whose capacity window a `src → dst` message occupies
    /// (0 on flat machines), and that level's admission bound.
    #[inline]
    fn pair_level(&self, src: ProcId, dst: ProcId) -> (usize, u64) {
        match self.hier.as_deref() {
            Some(hs) => {
                let k = hs.h.common_level(src, dst);
                (k, hs.caps[k])
            }
            None => (0, self.capacity),
        }
    }

    /// Debug builds count every growth of a pre-sized arena past its
    /// construction-time capacity; the standard collectives pin this at
    /// zero so `P = 10^6` setup stays one-allocation-per-arena.
    #[cfg(debug_assertions)]
    pub fn arena_reallocs(&self) -> u64 {
        self.vitals.arena_reallocs
    }

    /// The machine model being simulated.
    pub fn model(&self) -> &LogP {
        &self.model
    }

    /// Install a program on processor `p`.
    pub fn set_process(&mut self, p: ProcId, program: Box<dyn Process>) {
        self.procs[p as usize].program = Some(program);
    }

    /// Install the programs produced by `f(p)` on every processor.
    pub fn set_all<F>(&mut self, mut f: F)
    where
        F: FnMut(ProcId) -> Box<dyn Process>,
    {
        for p in 0..self.model.p {
            self.set_process(p, f(p));
        }
    }

    #[inline]
    fn schedule(&mut self, time: Cycles, kind: EventKind) {
        self.seq += 1;
        if self.seq >= SEQ_LIMIT {
            return self.keys_exhausted(None, SEQ_LIMIT);
        }
        self.cal.push(time, event_ord(kind.class(), self.seq), kind);
    }

    /// End the run: `proc` (with `None`, the classic run) has used up the
    /// event keys below `limit`. No event is processed after this, so
    /// whatever is scheduled from here on orders nothing.
    #[cold]
    fn keys_exhausted(&mut self, proc: Option<ProcId>, limit: u64) {
        let now = self.now;
        self.fail(SimError::KeysExhausted { proc, now, limit });
    }

    /// Fold a finished queue's counters into the run's vitals.
    fn fold_queue_vitals(&mut self, cal: &Calendar<EventKind>) {
        let v = &mut self.vitals;
        v.bucket_depth_max = v.bucket_depth_max.max(cal.depth_max);
        v.far_spills += cal.far_spills;
        #[cfg(debug_assertions)]
        {
            v.arena_reallocs += cal.far_regrows;
        }
    }

    /// The end of a `cycles`-long `command` that processor `p` starts
    /// now, or `None` — with the run's error recorded — when that would
    /// pass the horizon.
    #[inline]
    fn end_of(&mut self, p: ProcId, command: &'static str, cycles: Cycles) -> Option<Cycles> {
        let end = self.now.checked_add(cycles).filter(|&t| t <= self.horizon);
        if end.is_none() {
            self.fail(SimError::TimeOverflow {
                proc: p,
                now: self.now,
                command,
                cycles,
            });
        }
        end
    }

    /// End the run with `e`, unless an earlier command already failed it.
    /// The run stops at the next event, where the budget check reports
    /// the error — so no event pays a branch for this.
    #[cold]
    fn fail(&mut self, e: SimError) {
        self.overflow.get_or_insert(e);
        self.config.max_events = 0;
    }

    /// Count one more event against the budget.
    #[inline]
    fn count_event(&mut self) -> Result<(), SimError> {
        self.stats.events += 1;
        if self.stats.events > self.config.max_events {
            return Err(self.budget_error());
        }
        Ok(())
    }

    /// Why the event budget check tripped: a command failed the run
    /// early, or the budget really is spent.
    #[cold]
    fn budget_error(&mut self) -> SimError {
        self.overflow.take().unwrap_or(SimError::MaxEventsExceeded {
            limit: self.config.max_events,
        })
    }

    /// Give a message injected now its slot: in the classic slab, or in
    /// the slab of the lane that owns its destination.
    #[inline]
    fn park<const SHARDED: bool>(&mut self, parked: Parked) -> MsgSlot {
        let (lanes, lane) = if SHARDED {
            (self.lanes.len() as u32, self.lane_of[parked.dst as usize])
        } else {
            (1, 0)
        };
        let slab = if SHARDED {
            &mut self.lanes[lane as usize].slab
        } else {
            &mut self.msg_slab
        };
        let idx = if let Some(idx) = slab.free.pop() {
            slab.slots[idx as usize] = parked;
            idx
        } else {
            #[cfg(debug_assertions)]
            if slab.slots.len() == slab.slots.capacity() {
                self.vitals.arena_reallocs += 1;
            }
            slab.slots.push(parked);
            (slab.slots.len() - 1) as MsgSlot
        };
        idx * lanes + lane
    }

    /// The slab that holds `slot`, and the slot's index in it.
    #[inline]
    fn slab_of<const SHARDED: bool>(&mut self, slot: MsgSlot) -> (&mut MsgSlab, MsgSlot) {
        if SHARDED {
            let lanes = self.lanes.len() as u32;
            (&mut self.lanes[(slot % lanes) as usize].slab, slot / lanes)
        } else {
            (&mut self.msg_slab, slot)
        }
    }

    /// The message in `slot`, with its arrival time and inbox link.
    #[inline]
    fn parked<const SHARDED: bool>(&mut self, slot: MsgSlot) -> &mut Parked {
        let (slab, idx) = self.slab_of::<SHARDED>(slot);
        &mut slab.slots[idx as usize]
    }

    /// Free `slot`, moving its message out: to the handler at delivery,
    /// or to be dropped with a dead interface. The only way a slot frees.
    #[inline]
    fn free_slot<const SHARDED: bool>(&mut self, slot: MsgSlot) -> Message {
        let (slab, idx) = self.slab_of::<SHARDED>(slot);
        slab.free.push(idx);
        let parked = &mut slab.slots[idx as usize];
        Message {
            src: parked.src,
            dst: parked.dst,
            tag: parked.tag,
            data: std::mem::replace(&mut parked.data, Data::Empty),
        }
    }

    /// Chain the message arriving now in `slot` at the tail of `dst`'s
    /// inbox. Receptions take the head, so the inbox is a FIFO — and needs
    /// no ordering of its own, because arrivals already come in the order
    /// receptions must take them, `(arrival time, event tiebreak)`: every
    /// arrival for `dst` waits in the one calendar that owns `dst`, a
    /// calendar pops in ascending `(time, ord)`, and no arrival joins a
    /// window that is already draining (a message sent inside a window
    /// lands at or after its end: `W <= o + L - jitter`, and fault delays
    /// and duplicate offsets only add).
    #[inline]
    fn link_arrival<const SHARDED: bool>(&mut self, dst: ProcId, slot: MsgSlot) {
        let now = self.now;
        debug_assert_eq!(self.parked::<SHARDED>(slot).arrival, now);
        let st = &mut self.procs[dst as usize];
        let tail = std::mem::replace(&mut st.tail, slot);
        if st.head == NO_SLOT {
            st.head = slot;
            return;
        }
        let prev = self.parked::<SHARDED>(tail);
        debug_assert!(prev.arrival <= now, "an inbox takes arrivals in time order");
        prev.next = slot;
    }

    /// Messages waiting in `p`'s inbox (a walk: gauges and checks only).
    fn inbox_len<const SHARDED: bool>(&mut self, p: usize) -> u64 {
        let mut n = 0;
        let mut slot = self.procs[p].head;
        while slot != NO_SLOT {
            n += 1;
            slot = self.parked::<SHARDED>(slot).next;
        }
        n
    }

    // ---- sharded lane engine primitives ----
    //
    // The sharded engine keys every event canonically: the low 56 bits of
    // the event order are `(proc + 1) << 36 | ctr` where `ctr` is a
    // per-processor issuance counter (`pctr`), so same-timestamp ordering
    // depends only on processor-local execution order and is therefore
    // identical for every lane count. Crash events use the bare processor
    // id (< 2^20 < 2^36 ≤ any counter-derived key), preserving the
    // classic rule that a crash orders before every same-cycle arrival.
    // The `+ 1` keeps processor 0's counter keys out of the crash
    // namespace; it costs one slot of the 20-bit processor budget
    // (`P <= 2^20 - 1`, checked at dispatch).

    /// Claim the next canonical key-counter value of processor `p`.
    #[inline]
    fn bump_pctr(&mut self, p: ProcId) -> u64 {
        let c = self.pctr[p as usize];
        if c >= PCTR_LIMIT {
            self.keys_exhausted(Some(p), PCTR_LIMIT);
            return 0;
        }
        self.pctr[p as usize] = c + 1;
        c
    }

    /// Park an event in the calendar of the lane owning `owner`. Event
    /// times never precede that calendar's base — they are at or after
    /// `self.now`, which the window driver keeps at or above every lane's
    /// ring base.
    #[inline]
    fn push_lane(&mut self, owner: ProcId, time: Cycles, ord: u64, kind: EventKind) {
        let li = self.lane_of[owner as usize] as usize;
        self.lanes[li].cal.push(time, ord, kind);
    }

    /// Schedule an event on either engine. On the classic path this is
    /// exactly [`Sim::schedule`]; on the sharded path the event goes to
    /// its owning processor's lane under a canonical key. Returns the
    /// sequence number assigned (the `TimerFire` observability key).
    #[inline]
    fn sched<const SHARDED: bool>(&mut self, time: Cycles, kind: EventKind) -> u64 {
        if !SHARDED {
            self.schedule(time, kind);
            return self.seq;
        }
        let owner = match kind {
            EventKind::SendDone(p)
            | EventKind::ComputeDone(p, _)
            | EventKind::RecvDone(p)
            | EventKind::TimerFire(p, _)
            | EventKind::Wake(p) => p,
            // Arrivals go through `sched_arrive` (source-canonical key,
            // destination-lane routing); releases are rings and barrier
            // releases are window-driver work — neither reaches a heap.
            _ => unreachable!("classic-only event scheduled on the sharded path"),
        };
        let seq = ((owner as u64 + 1) << 36) | self.bump_pctr(owner);
        self.push_lane(owner, time, event_ord(kind.class(), seq), kind);
        seq
    }

    /// Schedule a message arrival: source-canonical key (`src << 36 |
    /// ctr`, so same-cycle arrivals chain into the destination's inbox in
    /// an order no lane count changes), routed to the destination's lane.
    #[inline]
    fn sched_arrive<const SHARDED: bool>(
        &mut self,
        time: Cycles,
        slot: MsgSlot,
        src: ProcId,
        dst: ProcId,
    ) {
        if !SHARDED {
            self.schedule(time, EventKind::Arrive(slot));
            return;
        }
        let seq = ((src as u64 + 1) << 36) | self.bump_pctr(src);
        self.push_lane(dst, time, event_ord(0, seq), EventKind::Arrive(slot));
    }

    /// Record an in-flight message's network-release instant in its
    /// source's ring (sharded replacement for `Release` events).
    #[inline]
    fn ring_push(&mut self, src: usize, release: Cycles) {
        let ring = &mut self.rings[src];
        ring.expire(self.now);
        ring.push(release);
        self.stats.max_inflight_per_src = self.stats.max_inflight_per_src.max(ring.len() as u64);
    }

    /// Evict released entries and report when `src` may inject another
    /// message under the ⌈L/g⌉ source window: `None` for now, else the
    /// release that frees the next slot. Mirrors the classic engine
    /// exactly: a message released at `t` frees its slot for sends
    /// attempted at `t` (`Release` carries event class 0).
    #[inline]
    fn ring_blocked_until(&mut self, src: usize, now: Cycles) -> Option<Cycles> {
        let ring = &mut self.rings[src];
        ring.expire(now);
        ring.front().filter(|_| ring.len() as u64 >= self.capacity)
    }

    /// Processor `p`'s next draw on `stream`, uniform on `0..=max`.
    #[inline]
    fn noise(&mut self, p: ProcId, stream: u64, max: u64) -> u64 {
        let k = self.draws[p as usize];
        self.draws[p as usize] = k + 1;
        noise(self.config.seed, stream, p as u64, k, max)
    }

    /// The flight time of a message `src` injects over a link of latency
    /// `l`: `l` less the configured jitter.
    #[inline]
    fn draw_latency(&mut self, src: ProcId, l: Cycles) -> Cycles {
        let j = self.config.latency_jitter.min(l.saturating_sub(1));
        if j == 0 {
            l
        } else {
            l - self.noise(src, stream::LATENCY, j)
        }
    }

    /// The duration of a nominally `cycles`-long compute on `proc`, under
    /// its systematic skew and the configured per-compute drift.
    #[inline]
    fn draw_compute(&mut self, proc: ProcId, cycles: Cycles) -> Cycles {
        let ppk = self.config.drift_ppk as i64;
        if cycles == 0 || (ppk == 0 && self.config.proc_skew_ppk == 0) {
            return cycles;
        }
        let noise = if ppk == 0 {
            0
        } else {
            self.noise(proc, stream::DRIFT, 2 * ppk as u64) as i64 - ppk
        };
        let scale = self.proc_scale.get(proc as usize).unwrap_or(&1024) + noise;
        let scaled = cycles as i128 * scale.max(0) as i128 / 1024;
        Cycles::try_from(scaled).unwrap_or(Cycles::MAX)
    }

    /// Record one message injected from `src` toward `dst` in the classic
    /// engine's windows: bump both in-flight counts at the pair's level
    /// and track the high-water marks reported in [`SimStats`]. A message
    /// that `arrives` also occupies the destination's NI buffer until its
    /// reception completes; one dropped in flight never reaches it.
    #[inline]
    fn note_injection(&mut self, src: ProcId, dst: ProcId, arrives: bool) {
        let (lvl, _) = self.pair_level(src, dst);
        let b = lvl * self.model.p as usize;
        let (src, dst) = (src as usize, dst as usize);
        self.in_flight_from[b + src] += 1;
        self.in_flight_to[b + dst] += 1;
        if arrives {
            self.outstanding_to[dst] += 1;
        }
        self.stats.max_inflight_per_src = self
            .stats
            .max_inflight_per_src
            .max(self.in_flight_from[b + src]);
        self.stats.max_inflight_per_dst = self
            .stats
            .max_inflight_per_dst
            .max(self.in_flight_to[b + dst]);
    }

    /// The record pipeline, on a lifecycle-logged run.
    #[inline]
    fn records(&mut self) -> Option<&mut Records> {
        self.obs.as_deref_mut()?.records.as_deref_mut()
    }

    /// Record one activity span: in the pipeline of a lifecycle-logged
    /// run, else straight into the trace.
    fn span(&mut self, proc: ProcId, start: Cycles, end: Cycles, activity: Activity) {
        if self.config.record_trace {
            let sp = Span {
                proc,
                start,
                end,
                activity,
            };
            match self.records() {
                Some(st) => st.span(&sp),
                None => self.trace.push(sp),
            }
        }
    }

    /// Dequeue the observability metadata `(cause, submit)` of the command
    /// just popped from `cmds` (`(Start, now)` unless the lifecycle log is
    /// on).
    #[inline]
    fn pop_meta<const OBS: bool>(&mut self, idx: usize) -> (Cause, Cycles) {
        let now = self.now;
        if !OBS {
            return (Cause::Start, now);
        }
        let Some(st) = self.records() else {
            return (Cause::Start, now);
        };
        // `runs` tracks `cmds` in lockstep.
        let runs = &mut st.runs[idx];
        let Some((cause, submit, left, start)) = runs.front_mut() else {
            return (Cause::Start, now);
        };
        if let Some(agg) = st.agg.as_mut() {
            agg.on_pop(idx, *start);
        }
        *left -= 1;
        let meta = (*cause, *submit);
        runs.pop_front_if(|run| run.2 == 0);
        meta
    }

    /// The capacity stall or barrier wait `p` is in, whose span is
    /// recorded only when it ends.
    fn open_span(&self, p: ProcId) -> OpenSpan {
        let st = &self.procs[p as usize];
        if st.stall_since != UNSET {
            Some((st.stall_since, Activity::Stall))
        } else if st.in_barrier {
            Some((st.barrier_entered_at, Activity::Barrier))
        } else {
            None
        }
    }

    /// Tell the online aggregate the message in `slot` reached `dst`'s
    /// inbox (out of line: only runs when observability is active).
    #[cold]
    #[inline(never)]
    fn note_arrival(&mut self, dst: ProcId, slot: MsgSlot) {
        let (now, open) = (self.now, self.open_span(dst));
        let Some(st) = self.records() else {
            return;
        };
        if let (Some(agg), Some(Some((_, start)))) =
            (st.agg.as_mut(), st.inflight.get_mut(slot as usize))
        {
            agg.on_arrival(dst, now, open, start);
        }
    }

    /// Record the reception of the message in `slot` starting now, in its
    /// lifecycle record.
    #[cold]
    #[inline(never)]
    fn note_reception(&mut self, slot: MsgSlot, recv_gate: Cycles) {
        let now = self.now;
        let Some(st) = self.records() else {
            return;
        };
        if let Some(Some((rec, start))) = st.inflight.get_mut(slot as usize) {
            rec.recv_gate = recv_gate;
            rec.recv_start = now;
            if let Some(agg) = st.agg.as_mut() {
                agg.on_reception(rec, start);
            }
        }
    }

    /// Free `slot` without a delivery: the message dies with its
    /// destination's interface, and its lifecycle record stays as it is.
    fn lose_slot<const OBS: bool, const SHARDED: bool>(&mut self, slot: MsgSlot) {
        self.free_slot::<SHARDED>(slot);
        if !OBS {
            return;
        }
        let Some(st) = self.records() else {
            return;
        };
        if let Some((rec, _)) = st.inflight.get_mut(slot as usize).and_then(Option::take) {
            st.undelivered.push(rec);
        }
    }

    /// Record a message injected now: its lifecycle head goes to ride at
    /// `slot` until delivery. A message the fault layer dropped in flight
    /// has no slot: it gets a lifecycle record like any other, complete
    /// at once, its arrival-side timestamps [`UNSET`] forever.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn record_send(
        &mut self,
        slot: Option<MsgSlot>,
        src: ProcId,
        dst: ProcId,
        tag: u32,
        words: u64,
        meta: (Cause, Cycles),
        send_gate: Cycles,
        inject: Cycles,
        sent: Cycles,
        arrive: Cycles,
        dup: bool,
    ) {
        let Some(obs) = self.obs.as_deref_mut() else {
            return;
        };
        if obs.metrics_on {
            let c = obs.c_injected;
            obs.metrics.inc(c, 1);
        }
        let Some(st) = obs.records.as_deref_mut() else {
            if let Some(slot) = slot {
                let s = slot as usize;
                if obs.msg_slab_obs.len() <= s {
                    obs.msg_slab_obs.resize(s + 1, 0);
                }
                obs.msg_slab_obs[s] = inject;
            }
            return;
        };
        let rec = MsgRecord {
            id: st.next_id(RecKind::Msg, src),
            src,
            dst,
            tag,
            words,
            cause: meta.0,
            submit: meta.1,
            send_gate,
            inject,
            sent,
            arrive,
            recv_gate: UNSET,
            recv_start: UNSET,
            deliver: UNSET,
        };
        let Some(slot) = slot else {
            if let Some(agg) = st.agg.as_mut() {
                agg.on_lost();
            }
            return st.emit_msg(&rec);
        };
        let start = match st.agg.as_mut() {
            Some(agg) => agg.on_send(&rec, dup),
            None => WindowStart::default(),
        };
        let s = slot as usize;
        if st.inflight.len() <= s {
            st.inflight.resize(s + 1, None);
        }
        st.inflight[s] = Some((rec, start));
    }

    /// Record an armed timer's lifecycle, noted under the `TimerFire`
    /// event's sequence number so the fire can recover the record.
    #[cold]
    #[inline(never)]
    fn record_timer(&mut self, p: ProcId, tag: u64, meta: (Cause, Cycles), fire: Cycles, seq: u64) {
        let now = self.now;
        let Some(st) = self.records() else {
            return;
        };
        let rec = TimerRecord {
            id: st.next_id(RecKind::Timer, p),
            proc: p,
            tag,
            cause: meta.0,
            submit: meta.1,
            armed: now,
            fire,
        };
        let start = st.agg.as_mut().map(|agg| agg.on_timer_armed());
        st.timer_obs[p as usize].push_back((seq, rec, start.unwrap_or_default()));
    }

    /// Complete a firing timer's record, found by its event sequence,
    /// and return the [`Cause`] its handler cites.
    #[cold]
    #[inline(never)]
    fn timer_cause(&mut self, p: ProcId, seq: u64) -> Cause {
        let open = self.open_span(p);
        let Some(st) = self.records() else {
            return Cause::Start;
        };
        let armed = &mut st.timer_obs[p as usize];
        let at = armed.iter().position(|e| e.0 == seq);
        let Some((_, rec, start)) = at.and_then(|at| armed.remove(at)) else {
            return Cause::Start;
        };
        if let Some(agg) = st.agg.as_mut() {
            agg.on_timer_fire(&rec, start, open);
        }
        st.emit_timer(&rec);
        Cause::Retry(rec.id)
    }

    /// Close `p`'s capacity stall, if one is running, into its accounts.
    #[inline]
    fn end_stall<const OBS: bool>(&mut self, p: ProcId) {
        let now = self.now;
        let since = std::mem::replace(&mut self.procs[p as usize].stall_since, UNSET);
        if since != UNSET {
            self.stats.procs[p as usize].stall += now - since;
            self.span(p, since, now, Activity::Stall);
            if OBS {
                self.record_stall(now - since);
            }
        }
    }

    /// Record the end of a capacity-stall episode.
    #[cold]
    #[inline(never)]
    fn record_stall(&mut self, dur: Cycles) {
        if let Some(obs) = self.obs.as_deref_mut() {
            if obs.metrics_on {
                let (c, h) = (obs.c_stall_episodes, obs.h_stall);
                obs.metrics.inc(c, 1);
                obs.metrics.observe(h, dur);
            }
        }
    }

    /// Record the delivery, completing now, of the message in `slot` and
    /// return the [`Cause`] its handler cites. Runs before that handler,
    /// whose own sends may take the slot — and what rides at it — over.
    #[cold]
    #[inline(never)]
    fn record_delivery(&mut self, slot: MsgSlot) -> Cause {
        let now = self.now;
        let Some(obs) = self.obs.as_deref_mut() else {
            return Cause::Start;
        };
        let s = slot as usize;
        let (since, cause) = match obs.records.as_deref_mut() {
            None => (
                obs.msg_slab_obs.get(s).copied().unwrap_or(now),
                Cause::Start,
            ),
            Some(st) => match st.inflight.get_mut(s).and_then(Option::take) {
                Some((mut rec, start)) => {
                    rec.deliver = now;
                    if let Some(agg) = st.agg.as_mut() {
                        agg.on_delivery(&rec, start);
                    }
                    st.emit_msg(&rec);
                    (rec.submit, Cause::Msg(rec.id))
                }
                None => (now, Cause::Start),
            },
        };
        if obs.metrics_on {
            let (c, h) = (obs.c_delivered, obs.h_latency);
            obs.metrics.inc(c, 1);
            obs.metrics.observe(h, now - since);
        }
        cause
    }

    /// Record a compute committing now: the record is complete at
    /// creation because the end instant is already scheduled.
    #[cold]
    #[inline(never)]
    fn record_compute(&mut self, p: ProcId, tag: u64, meta: (Cause, Cycles), dur: Cycles) {
        let now = self.now;
        let Some(obs) = self.obs.as_deref_mut() else {
            return;
        };
        if obs.metrics_on {
            let c = obs.c_computes;
            obs.metrics.inc(c, 1);
        }
        let Some(st) = obs.records.as_deref_mut() else {
            return;
        };
        let rec = ComputeRecord {
            id: st.next_id(RecKind::Compute, p),
            proc: p,
            tag,
            cause: meta.0,
            submit: meta.1,
            start: now,
            end: now + dur,
        };
        if let Some(agg) = st.agg.as_mut() {
            agg.on_compute(&rec);
        }
        if st.sampler.pass_proc(p) {
            st.emitted += 1;
            st.sink.on_compute(&rec);
        }
        st.cur_compute[p as usize] = rec.id;
    }

    /// Record the barrier releasing now and return the [`Cause`] the
    /// released handlers cite. Shared by the classic `BarrierRelease`
    /// event and the sharded driver's canonical delta replay.
    #[cold]
    #[inline(never)]
    fn record_barrier_release(&mut self) -> Cause {
        let now = self.now;
        let Some(st) = self.records() else {
            return Cause::Start;
        };
        let (last_proc, submit, enter, cause) = st.barrier_last;
        let rec = BarrierRecord {
            id: st.next_id(RecKind::Barrier, last_proc),
            last_proc,
            submit,
            enter,
            release: now,
            cause,
        };
        if let Some(agg) = st.agg.as_mut() {
            agg.on_barrier_release(&rec);
        }
        if st.sampler.pass_proc(last_proc) {
            st.emitted += 1;
            st.sink.on_barrier(&rec);
        }
        Cause::Barrier(rec.id)
    }

    /// Emit gauge samples for every grid instant strictly before `t`
    /// (processor/network state is piecewise constant between events, so
    /// the pre-event state is exact for those instants).
    #[cold]
    #[inline(never)]
    fn sample_gauges_to(&mut self, t: Cycles) {
        let due = |o: &ObsState| (o.gauges.is_some() && o.next_sample < t).then_some(o.next_sample);
        while let Some(s) = self.obs.as_deref().and_then(due) {
            // Each in-flight message occupies exactly one (level, dst)
            // entry, so the stride-flattened sum is still the total.
            let inflight_total: u64 = self.in_flight_to.iter().sum();
            let ready_cmds: u64 = self.procs.iter().map(|p| p.cmds.len() as u64).sum();
            let inbox_depth: u64 = (0..self.procs.len())
                .map(|p| self.inbox_len::<false>(p))
                .sum();
            let busy = self
                .procs
                .iter()
                .filter(|p| p.busy_until > s || p.stall_since != UNSET)
                .count() as u64;
            let util_ppk = busy * PPK_SCALE / self.model.p as u64;
            let Some(obs) = self.obs.as_deref_mut() else {
                return;
            };
            let Some(g) = obs.gauges.as_ref() else {
                return;
            };
            obs.metrics.sample(g.inflight_total, s, inflight_total);
            obs.metrics.sample(g.ready_cmds, s, ready_cmds);
            obs.metrics.sample(g.inbox_depth, s, inbox_depth);
            obs.metrics.sample(g.util_ppk, s, util_ppk);
            // Per-destination gauges sum a destination's windows across
            // levels (one entry per destination regardless of depth).
            let np = self.model.p as usize;
            for (d, &gd) in g.per_dst.iter().enumerate() {
                let v: u64 = self.in_flight_to[d..].iter().step_by(np).sum();
                obs.metrics.sample(gd, s, v);
            }
            obs.next_sample += obs.grid;
        }
    }

    /// Whether `p` has crash-stopped under the fault plan. Only meaningful
    /// on the `FAULTS` monomorphization.
    #[inline]
    fn is_crashed(&self, p: ProcId) -> bool {
        self.faults
            .as_deref()
            .is_some_and(|f| f.crashed[p as usize])
    }

    /// Put a committed send on the wire: the tail every message goes
    /// through, exactly once. The message enters the capacity windows
    /// (classic) or its source's release ring (lanes), takes the slab slot
    /// it keeps until delivery, is recorded, and leaves the window after
    /// `flight` cycles of network occupancy — streaming plus latency, not
    /// the sender's overhead `o`, which only delays the arrival. `dup`
    /// marks the fault layer's trailing copy of a message.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn inject<const OBS: bool, const SHARDED: bool>(
        &mut self,
        src: ProcId,
        dst: ProcId,
        tag: u32,
        data: Data,
        words: u64,
        meta: (Cause, Cycles),
        send_gate: Cycles,
        o: Cycles,
        flight: Cycles,
        dup: bool,
    ) {
        let now = self.now;
        if !SHARDED {
            self.note_injection(src, dst, true);
        }
        let (sent, arrive) = (now + o, now + o + flight);
        let slot = self.park::<SHARDED>(Parked {
            data,
            arrival: arrive,
            src,
            dst,
            tag,
            next: NO_SLOT,
        });
        if OBS {
            let slot = Some(slot);
            self.record_send(
                slot, src, dst, tag, words, meta, send_gate, now, sent, arrive, dup,
            );
        }
        if SHARDED {
            self.ring_push(src as usize, now + flight);
        } else {
            self.schedule(now + flight, EventKind::Release { src, dst });
        }
        self.sched_arrive::<SHARDED>(arrive, slot, src, dst);
    }

    /// Inject a committed send through the fault layer: consult the plan,
    /// then drop the message, stretch its flight, and/or inject a trailing
    /// duplicate. `flight` was drawn by the caller, so the engine's noise
    /// stream is identical to the fault-free path.
    #[allow(clippy::too_many_arguments)]
    fn inject_faulty<const OBS: bool, const SHARDED: bool>(
        &mut self,
        src: ProcId,
        dst: ProcId,
        tag: u32,
        data: Data,
        words: u64,
        meta: (Cause, Cycles),
        send_gate: Cycles,
        o: Cycles,
        flight: Cycles,
    ) {
        let now = self.now;
        let Some(faults) = self.faults.as_deref_mut() else {
            debug_assert!(false, "FAULTS implies a fault plan");
            return self.inject::<OBS, SHARDED>(
                src, dst, tag, data, words, meta, send_gate, o, flight, false,
            );
        };
        let d = faults.decide(src, dst, &data);
        let flight = flight + d.delay;
        if d.drop {
            // The message occupies both network windows for its would-be
            // flight — the sender cannot tell a dropped message from a
            // slow one — but the destination NI never sees it: no slab
            // slot, no Arrive, no NI-buffer occupancy.
            self.stats.msgs_dropped += 1;
            if OBS {
                let sent = now + o;
                self.record_send(
                    None, src, dst, tag, words, meta, send_gate, now, sent, UNSET, false,
                );
            }
            if SHARDED {
                self.ring_push(src as usize, now + flight);
            } else {
                self.note_injection(src, dst, false);
                self.schedule(now + flight, EventKind::Release { src, dst });
            }
            return;
        }
        if d.delay > 0 {
            self.stats.msgs_delayed += 1;
        }
        let copy = d.duplicate.then(|| data.clone());
        self.inject::<OBS, SHARDED>(
            src, dst, tag, data, words, meta, send_gate, o, flight, false,
        );
        if let Some(data) = copy {
            // The duplicate is a full extra injection (own capacity
            // window, own lifecycle record) trailing the original by at
            // least one cycle, so duplicates also reorder.
            self.stats.msgs_duplicated += 1;
            let flight = flight + d.dup_delay;
            self.inject::<OBS, SHARDED>(
                src, dst, tag, data, words, meta, send_gate, o, flight, true,
            );
        }
    }

    /// Crash-stop processor `p` now: no handler of `p` runs at or after
    /// this instant, queued work is abandoned, and the network interface
    /// discards everything it holds (and everything that arrives later).
    #[cold]
    #[inline(never)]
    fn apply_crash<const OBS: bool, const SHARDED: bool>(&mut self, p: ProcId) {
        let idx = p as usize;
        let Some(faults) = self.faults.as_deref_mut() else {
            debug_assert!(false, "crash events require a fault plan");
            return;
        };
        if self.procs[idx].halted {
            // Already halted (or a duplicate crash entry): just mark the
            // interface dead so future arrivals are discarded.
            faults.crashed[idx] = true;
            return;
        }
        faults.crashed[idx] = true;
        let now = self.now;
        self.stats.procs_crashed += 1;
        self.end_stall::<OBS>(p);
        // Abandon queued commands (causal metadata stays in lockstep).
        self.procs[idx].cmds.clear(&mut self.cmd_slab);
        if OBS {
            if let Some(st) = self.records() {
                st.runs[idx].clear();
                if let Some(agg) = st.agg.as_mut() {
                    agg.on_crash(p);
                }
            }
        }
        // Everything the dead interface holds is lost, and its NI slots
        // free: the reception in progress (whose pending RecvDone the
        // crash guard ignores), then the inbox.
        let st = &mut self.procs[idx];
        let receiving = std::mem::replace(&mut st.receiving, NO_SLOT);
        let mut slot = std::mem::replace(&mut st.head, NO_SLOT);
        let mut lost = 0;
        if receiving != NO_SLOT {
            self.lose_slot::<OBS, SHARDED>(receiving);
            lost += 1;
        }
        while slot != NO_SLOT {
            let next = self.parked::<SHARDED>(slot).next;
            self.lose_slot::<OBS, SHARDED>(slot);
            slot = next;
            lost += 1;
        }
        if !SHARDED {
            self.outstanding_to[idx] -= lost;
        }
        self.stats.msgs_dropped += lost;
        // A crashed processor no longer counts toward the barrier quorum.
        let was_in_barrier = self.procs[idx].in_barrier;
        if was_in_barrier {
            self.procs[idx].in_barrier = false;
            self.barrier_count -= 1;
        }
        self.procs[idx].halted = true;
        self.procs[idx].waiting_on_src = false;
        self.alive -= 1;
        if SHARDED {
            self.bdeltas.push(BarrierDelta {
                t: now,
                proc: p,
                dcount: if was_in_barrier { -1 } else { 0 },
                dalive: -1,
                meta: None,
            });
        } else {
            self.check_barrier();
            // Freed NI slots may unblock stalled senders (whose future
            // messages will simply be discarded on arrival).
            self.wake_dst_waiters::<OBS, true>(idx);
        }
    }

    /// Run a program handler and enqueue the commands it issues; `cause`
    /// identifies the triggering event for the lifecycle log.
    fn run_handler<const OBS: bool, F>(&mut self, p: ProcId, cause: Cause, f: F)
    where
        F: FnOnce(&mut dyn Process, &mut Ctx<'_>),
    {
        // Temporarily detach the program so the context can borrow `self`
        // state without aliasing. Handlers cannot re-enter the engine, so
        // it is always there to take.
        let program = self.procs[p as usize].program.take();
        debug_assert!(program.is_some(), "handlers do not re-enter the engine");
        let Some(mut program) = program else {
            return;
        };
        let mut cmds = std::mem::take(&mut self.cmd_scratch);
        cmds.clear();
        {
            let mut ctx = Ctx::new(self.now, p, self.model.p, &mut cmds);
            f(program.as_mut(), &mut ctx);
        }
        self.procs[p as usize].program = Some(program);
        let issued = cmds.len();
        self.procs[p as usize]
            .cmds
            .append(&mut cmds, &mut self.cmd_slab);
        if OBS && issued > 0 {
            self.push_meta(p, cause, issued);
        }
        self.cmd_scratch = cmds;
    }

    /// Tag `issued` freshly queued commands with their causal metadata.
    #[cold]
    #[inline(never)]
    fn push_meta(&mut self, p: ProcId, cause: Cause, issued: usize) {
        let (now, open) = (self.now, self.open_span(p));
        let Some(st) = self.records() else {
            return;
        };
        let start = match st.agg.as_mut() {
            Some(agg) => agg.on_push(p, cause, now, issued as u32, open),
            None => WindowStart::default(),
        };
        st.runs[p as usize].push_back((cause, now, issued as u32, start));
    }

    /// Try to make progress on processor `p` at the current time.
    ///
    /// Monomorphized over `OBS` (whether observability state exists for
    /// this run) and `FAULTS` (whether a fault plan is installed) so the
    /// disabled hot path compiles with every hook removed — the flags are
    /// `self.obs.is_some()` / `self.faults.is_some()`, fixed at
    /// [`Sim::run`].
    fn advance<const OBS: bool, const FAULTS: bool, const SHARDED: bool>(&mut self, p: ProcId) {
        let now = self.now;
        let idx = p as usize;
        if self.procs[idx].engaged || self.procs[idx].halted {
            return;
        }
        if now > self.horizon {
            // Model-sized steps crept up to the limit: end the run here.
            let what = self.procs[idx]
                .cmds
                .front(&self.cmd_slab)
                .map_or("receive", |h| h.name());
            self.end_of(p, what, 0);
            return;
        }
        // Active-message polling: at every command boundary, an already
        // arrived message whose reception can start *now* is serviced
        // before the next command (the CM-5 communication layer polls the
        // network between operations). A capacity-stalled processor does
        // not poll — the model says it stalls.
        {
            let st = &self.procs[idx];
            if !st.waiting_on_src
                && !st.waiting_on_dst
                && st.busy_until <= now
                && st.next_recv_slot <= now
                && st.head != NO_SLOT
            {
                let head = st.head;
                if self.parked::<SHARDED>(head).arrival <= now {
                    self.start_reception::<OBS, SHARDED>(p);
                    return;
                }
            }
        }
        if let Some(head) = self.procs[idx].cmds.front(&self.cmd_slab) {
            match head {
                Head::Send { dst } => self.send::<OBS, FAULTS, SHARDED>(p, dst, None),
                Head::SendBulk { dst, words } => {
                    self.send::<OBS, FAULTS, SHARDED>(p, dst, Some(words))
                }
                Head::Compute { cycles, tag } => {
                    if now < self.procs[idx].busy_until {
                        let t = self.procs[idx].busy_until;
                        self.sched::<SHARDED>(t, EventKind::Wake(p));
                        return;
                    }
                    let dur = self.draw_compute(p, cycles);
                    let Some(done) = self.end_of(p, "compute", dur) else {
                        return;
                    };
                    self.procs[idx].cmds.skip_front(&mut self.cmd_slab);
                    let meta = self.pop_meta::<OBS>(idx);
                    let st = &mut self.procs[idx];
                    st.busy_until = done;
                    st.engaged = true;
                    self.stats.procs[idx].compute += dur;
                    self.span(p, now, done, Activity::Compute);
                    if OBS {
                        self.record_compute(p, tag, meta, dur);
                    }
                    self.sched::<SHARDED>(done, EventKind::ComputeDone(p, tag));
                }
                Head::Barrier => {
                    if now < self.procs[idx].busy_until {
                        let t = self.procs[idx].busy_until;
                        self.sched::<SHARDED>(t, EventKind::Wake(p));
                        return;
                    }
                    self.procs[idx].cmds.skip_front(&mut self.cmd_slab);
                    let meta = self.pop_meta::<OBS>(idx);
                    let st = &mut self.procs[idx];
                    st.in_barrier = true;
                    st.barrier_entered_at = now;
                    st.engaged = true;
                    self.barrier_count += 1;
                    if let Some(obs) = self.obs.as_deref_mut().filter(|_| OBS) {
                        if let Some(st) = obs.records.as_deref_mut() {
                            st.barrier_last = (p, meta.1, now, meta.0);
                            if let Some(agg) = st.agg.as_mut() {
                                agg.on_barrier_enter(p, meta.1, now);
                            }
                        }
                        if obs.metrics_on {
                            let c = obs.c_barrier_entries;
                            obs.metrics.inc(c, 1);
                        }
                    }
                    if SHARDED {
                        // Completion is decided by the window driver's
                        // canonical delta replay, not mid-pass.
                        self.bdeltas.push(BarrierDelta {
                            t: now,
                            proc: p,
                            dcount: 1,
                            dalive: 0,
                            meta: Some(meta),
                        });
                    } else {
                        self.check_barrier();
                    }
                }
                Head::Timer { cycles, tag } => {
                    // Arming is free: no overhead, no gap, no busy wait.
                    let Some(fire) = self.end_of(p, "timer", cycles) else {
                        return;
                    };
                    self.procs[idx].cmds.skip_front(&mut self.cmd_slab);
                    let meta = self.pop_meta::<OBS>(idx);
                    let seq = self.sched::<SHARDED>(fire, EventKind::TimerFire(p, tag));
                    if OBS {
                        self.record_timer(p, tag, meta, fire, seq);
                    }
                    // Keep draining the command queue behind the timer.
                    self.advance::<OBS, FAULTS, SHARDED>(p);
                }
                Head::Halt => {
                    self.procs[idx].cmds.skip_front(&mut self.cmd_slab);
                    self.pop_meta::<OBS>(idx);
                    self.procs[idx].halted = true;
                    self.alive -= 1;
                    if SHARDED {
                        self.bdeltas.push(BarrierDelta {
                            t: now,
                            proc: p,
                            dcount: 0,
                            dalive: -1,
                            meta: None,
                        });
                    } else {
                        self.check_barrier();
                    }
                }
            }
            return;
        }
        // No pending commands: service the network (waiting for the
        // earliest reception opportunity if it is in the future).
        let head = self.procs[idx].head;
        if head != NO_SLOT {
            let arrival = self.parked::<SHARDED>(head).arrival;
            let st = &self.procs[idx];
            let r = st.busy_until.max(st.next_recv_slot).max(arrival);
            if now < r {
                self.sched::<SHARDED>(r, EventKind::Wake(p));
                return;
            }
            self.start_reception::<OBS, SHARDED>(p);
        }
        // Otherwise: idle until something arrives.
    }

    /// Execute the send — to `dst`, of `bulk` words if a long message — at
    /// the front of `p`'s queue, or arrange to retry it. One path for both
    /// sends — LogGP's identity: a one-word bulk message *is* a small
    /// message. The processor pays only `o`; the interface streams the
    /// remaining words at `G` each, blocking the *next* injection until
    /// done.
    #[inline]
    fn send<const OBS: bool, const FAULTS: bool, const SHARDED: bool>(
        &mut self,
        p: ProcId,
        dst: ProcId,
        bulk: Option<u64>,
    ) {
        let now = self.now;
        let idx = p as usize;
        // How long a bulk message streams.
        let mut stream = 0;
        if let Some(words) = bulk {
            let Some(big_g) = self.config.loggp_big_g else {
                self.fail(SimError::MissingBigG {
                    proc: p,
                    now,
                    command: "send_bulk",
                });
                return;
            };
            stream = (words - 1).saturating_mul(big_g);
            if self.end_of(p, "send_bulk", stream).is_none() {
                return;
            }
        }
        // Gate on the processor and the gap ...
        let st = &self.procs[idx];
        let s = st.busy_until.max(st.next_send_slot);
        if now < s {
            self.sched::<SHARDED>(s, EventKind::Wake(p));
            return;
        }
        // ... and on capacity.
        if SHARDED {
            // Source window via the release ring (never full when capacity
            // is not enforced); destination admission is relaxed on the
            // sharded path (its zero-lookahead coupling is what lanes
            // remove — see `crate::shard`).
            if let Some(wake) = self.ring_blocked_until(idx, now) {
                let st = &mut self.procs[idx];
                st.stall(now);
                st.waiting_on_src = true;
                self.sched::<SHARDED>(wake, EventKind::Wake(p));
                return;
            }
        } else {
            let (lvl, cap) = self.pair_level(p, dst);
            let b = lvl * self.model.p as usize;
            if self.in_flight_from[b + idx] >= cap {
                // Stall until one of our own messages arrives.
                let st = &mut self.procs[idx];
                st.stall(now);
                st.waiting_on_src = true;
                return;
            }
            if self.in_flight_to[b + dst as usize] >= cap
                || self.outstanding_to[dst as usize] >= self.max_outstanding
            {
                let st = &mut self.procs[idx];
                st.stall(now);
                if !st.waiting_on_dst {
                    st.waiting_on_dst = true;
                    self.dst_waiters[dst as usize].push_back(p);
                }
                return;
            }
        }
        // Committed: dequeue by value so the payload moves instead of
        // cloning.
        let (tag, data) = match self.procs[idx].cmds.pop_front(&mut self.cmd_slab) {
            Some(Command::Send { tag, data, .. }) => (tag, data),
            Some(Command::SendBulk(b)) => (b.tag, b.data),
            // `advance` saw a send at the front.
            _ => return,
        };
        let meta = self.pop_meta::<OBS>(idx);
        let st = &mut self.procs[idx];
        st.waiting_on_src = false;
        let send_gate = st.next_send_slot;
        self.end_stall::<OBS>(p);
        // Pay `o`. The next send waits out the gap — and, behind a bulk
        // message, the stream, which starts when `o` ends: with `o > g`
        // even a one-word bulk message holds the next send until
        // `now + o` (visible only as the next `MsgRecord::send_gate`).
        let (pl, o, g) = self.pair_log(p, dst);
        let st = &mut self.procs[idx];
        st.busy_until = now + o;
        st.next_send_slot = match bulk {
            Some(_) => (now + g).max(now + o + stream),
            None => now + g,
        };
        let stats = &mut self.stats.procs[idx];
        stats.send_overhead += o;
        stats.msgs_sent += 1;
        self.span(p, now, now + o, Activity::SendOverhead);
        // Inject.
        let words = bulk.unwrap_or(1);
        let flight = stream + self.draw_latency(p, pl);
        if FAULTS {
            self.inject_faulty::<OBS, SHARDED>(
                p, dst, tag, data, words, meta, send_gate, o, flight,
            );
        } else {
            self.inject::<OBS, SHARDED>(
                p, dst, tag, data, words, meta, send_gate, o, flight, false,
            );
        }
        self.finish_send::<SHARDED>(p);
    }

    /// Begin receiving the earliest-arrived inbox message — the head of
    /// the chain — at the current time. Caller guarantees the processor is
    /// free and the gap allows.
    fn start_reception<const OBS: bool, const SHARDED: bool>(&mut self, p: ProcId) {
        let now = self.now;
        let idx = p as usize;
        let slot = self.procs[idx].head;
        let entry = self.parked::<SHARDED>(slot);
        debug_assert!(entry.arrival <= now);
        let (next, src) = (entry.next, entry.src);
        let (_, o, g) = self.pair_log(src, p);
        // A capacity-stalled send may have been woken and then preempted
        // by this reception; close its stall span so stall and reception
        // time stay disjoint in the accounting (the send re-opens it if
        // still blocked).
        self.end_stall::<OBS>(p);
        let st = &mut self.procs[idx];
        let recv_gate = st.next_recv_slot;
        st.next_recv_slot = now + g;
        st.busy_until = now + o;
        st.head = next;
        st.receiving = slot;
        st.engaged = true;
        self.stats.procs[idx].recv_overhead += o;
        if OBS {
            self.note_reception(slot, recv_gate);
        }
        self.span(p, now, now + o, Activity::RecvOverhead);
        self.sched::<SHARDED>(now + o, EventKind::RecvDone(p));
    }

    /// Close out an injection that just occupied `[now, busy_until)`.
    ///
    /// A `SendDone` completion event only exists to re-examine the sender
    /// once its overhead ends. When the sender has no queued commands and
    /// an empty inbox, that re-examination is a no-op — `busy_until`
    /// already gates later polling and sends — so the event is elided
    /// entirely (a quarter of all events in request-reply traffic). Any
    /// message arriving during the overhead window finds the processor
    /// un-engaged and schedules its own wake at `busy_until`.
    #[inline]
    fn finish_send<const SHARDED: bool>(&mut self, p: ProcId) {
        let st = &self.procs[p as usize];
        if st.cmds.is_empty() && st.head == NO_SLOT {
            return;
        }
        let done = st.busy_until;
        self.procs[p as usize].engaged = true;
        self.sched::<SHARDED>(done, EventKind::SendDone(p));
    }

    /// Wake every sender queued on destination `dst`'s capacity list
    /// (FIFO; each re-checks its bound and re-queues if still blocked).
    ///
    /// Every waiter must be woken even when the window is already full
    /// again: a woken sender's `advance` polls its own inbox before
    /// retrying the send, and that reception progress is what unwinds
    /// cyclic stalls (two processors each stalled sending to the other
    /// drain their inboxes only through this path). Uses the reusable
    /// scratch buffer so the wake never allocates — `advance` may push a
    /// still-blocked sender back onto the very list being drained.
    fn wake_dst_waiters<const OBS: bool, const FAULTS: bool>(&mut self, dst: usize) {
        if self.dst_waiters[dst].is_empty() {
            return;
        }
        let mut waiters = std::mem::take(&mut self.waiter_scratch);
        waiters.extend(self.dst_waiters[dst].drain(..));
        for &w in &waiters {
            self.procs[w as usize].waiting_on_dst = false;
            self.advance::<OBS, FAULTS, false>(w);
        }
        waiters.clear();
        self.waiter_scratch = waiters;
    }

    /// Schedule the release once per quorum: a processor crashing while
    /// it waits in a complete barrier completes the quorum "again".
    fn check_barrier(&mut self) {
        if !self.release_pending && self.alive > 0 && self.barrier_count == self.alive {
            self.release_pending = true;
            self.schedule(
                self.now + self.config.barrier_cost,
                EventKind::BarrierRelease,
            );
        }
    }

    /// Run to quiescence. Consumes the machine and returns statistics and
    /// (if configured) the activity trace.
    pub fn run(self) -> Result<SimResult, SimError> {
        self.run_counting_reallocs().map(|(result, _)| result)
    }

    /// [`Sim::run`], additionally returning the arena-growth count (see
    /// [`Sim::arena_reallocs`]; always 0 in release builds, where the
    /// counter is compiled out). The pre-sizing pin tests use this to
    /// assert that construction-time arena capacities stay exact.
    pub fn run_counting_reallocs(mut self) -> Result<(SimResult, u64), SimError> {
        // A machine `Sim::new` could not build as configured.
        if let Some(e) = self.overflow.take() {
            return Err(e);
        }
        // Pick the monomorphization once: `self.obs` and `self.faults`
        // are installed before the run and never change during it, so
        // their presence is invariant across the whole event loop.
        let sharded = runs_on_lanes(&self.model, &self.config);
        // The sharded engine's capacity model admits every arrival
        // immediately (stalling a remote sender within a lookahead window
        // would need cross-lane backpressure), so a capacity-enforcing
        // config is silently relaxed there. Surface that: a vitals
        // counter on every such run, plus a one-time structured warning.
        if sharded && self.config.enforce_capacity {
            self.vitals.capacity_relaxed = 1;
            static CAPACITY_WARN: std::sync::Once = std::sync::Once::new();
            CAPACITY_WARN.call_once(|| {
                eprintln!(
                    "logp-sim: warning: enforce_capacity is not implemented by the sharded \
                     engine (shards >= 2): the network capacity bound is relaxed for this run \
                     (reported as vitals_capacity_relaxed = 1; use shards = 0 to enforce it)"
                );
            });
        }
        // No single step schedules further ahead than this (saturating:
        // an absurd model leaves no room and fails its first step).
        let (ol, g) = match self.hierarchy() {
            Some(h) => (
                h.max_reach(),
                h.levels().iter().map(|lv| lv.g).max().unwrap_or(0),
            ),
            None => (self.model.o.saturating_add(self.model.l), self.model.g),
        };
        let delay = self.config.faults.as_ref().map_or(0, |f| f.max_delay);
        let reach = [g, delay, delay, self.config.barrier_cost]
            .iter()
            .fold(ol, |a, &b| a.saturating_add(b));
        self.horizon = TIME_LIMIT.saturating_sub(reach);
        let wall_start = std::time::Instant::now();
        match (self.obs.is_some(), self.faults.is_some(), sharded) {
            (false, false, false) => self.drive::<false, false>()?,
            (false, true, false) => self.drive::<false, true>()?,
            (true, false, false) => self.drive::<true, false>()?,
            (true, true, false) => self.drive::<true, true>()?,
            (false, false, true) => self.drive_sharded::<false, false>()?,
            (false, true, true) => self.drive_sharded::<false, true>()?,
            (true, false, true) => self.drive_sharded::<true, false>()?,
            (true, true, true) => self.drive_sharded::<true, true>()?,
        }
        let wall_ns = wall_start.elapsed().as_nanos() as u64;
        if let Some(e) = self.overflow.take() {
            return Err(e);
        }
        // Queue pops are time-ordered, so the clock is monotone and the
        // final `now` is the completion time — no per-event max needed.
        self.stats.completion = self.now;
        // Quiescence with unexecuted work is a deadlock, not a normal
        // end: a command queue that never drained (e.g. a send stalled on
        // a destination whose receiver stopped draining) or a barrier
        // that never released means the program did not complete.
        let stuck: Vec<ProcId> = (0..self.model.p)
            .filter(|&p| {
                let st = &self.procs[p as usize];
                !st.halted && (!st.cmds.is_empty() || st.in_barrier)
            })
            .collect();
        if !stuck.is_empty() {
            return Err(SimError::Deadlock { stuck });
        }
        #[cfg(debug_assertions)]
        {
            if sharded {
                self.assert_slots_accounted::<true>();
            } else {
                self.assert_slots_accounted::<false>();
            }
            self.assert_cmds_accounted();
        }
        let cal = std::mem::take(&mut self.cal);
        self.fold_queue_vitals(&cal);
        for lane in std::mem::take(&mut self.lanes) {
            self.fold_queue_vitals(&lane.cal);
        }
        // Close the gauge series with the end-of-run state (one sample at
        // the completion instant).
        if self.obs.is_some() {
            self.sample_gauges_to(self.now + 1);
        }
        let mut vitals = self.vitals;
        vitals.wall_ns = wall_ns;
        vitals.events = self.stats.events;
        if sharded {
            vitals.engine = "sharded";
            vitals.lanes = vitals.lane_events.len() as u32;
        }
        let mut res = SimResult {
            stats: self.stats,
            trace: self.trace,
            vitals,
            ..SimResult::default()
        };
        if let Some(obs) = self.obs.take() {
            res.metrics = obs.metrics;
            if let Some(records) = obs.records {
                records.finish(&mut res).map_err(SimError::Sink)?;
            }
        }
        if sharded {
            // Lane passes append spans in pass order; by processor (a
            // stable sort) is the order no lane count changes.
            res.trace.spans.sort_by_key(|s| s.proc);
        }
        let reallocs = res.vitals.arena_reallocs;
        Ok((res, reallocs))
    }

    /// A slot frees exactly once: at quiescence every slot still in use is
    /// chained in an inbox, and only a halted (or crashed) processor
    /// leaves messages behind.
    #[cfg(debug_assertions)]
    fn assert_slots_accounted<const SHARDED: bool>(&mut self) {
        let slabs = self.lanes.iter().map(|l| &l.slab).chain([&self.msg_slab]);
        let in_use: usize = slabs.map(|s| s.slots.len() - s.free.len()).sum();
        let mut chained = 0;
        for p in 0..self.procs.len() {
            let left = self.inbox_len::<SHARDED>(p);
            let st = &self.procs[p];
            assert!(st.receiving == NO_SLOT, "P{p} is still receiving");
            assert!(left == 0 || st.halted, "live P{p} left {left} unread");
            chained += left as usize;
        }
        assert_eq!(in_use, chained, "message slots leaked or freed twice");
    }

    /// Likewise a parked command: at quiescence the command slab holds
    /// exactly the owning commands still queued, and only a halted
    /// processor leaves commands behind (a crash abandons its queue).
    #[cfg(debug_assertions)]
    fn assert_cmds_accounted(&self) {
        let mut queued = 0;
        for (p, st) in self.procs.iter().enumerate() {
            let left = st.cmds.parked();
            assert!(left == 0 || st.halted, "live P{p} left {left} parked");
            queued += left;
        }
        assert_eq!(
            self.cmd_slab.len(),
            queued,
            "parked commands leaked or freed twice"
        );
    }

    /// The fault plan's crash-stops as the plan lists them; none without
    /// a plan, which the `FAULTS` monomorphizations never run without.
    fn crash_schedule(&self) -> Vec<(ProcId, Cycles)> {
        let Some(faults) = self.faults.as_deref() else {
            debug_assert!(false, "FAULTS implies a fault plan");
            return Vec::new();
        };
        faults.plan.crashes.clone()
    }

    /// Plant one crash-stop of the fault plan: a cycle-0 crash applies
    /// at once (it suppresses even `on_start`), a later one becomes an
    /// event ordered before every same-cycle arrival — on the classic
    /// engine by being scheduled before anything else, on the lanes by
    /// the bare processor id as its canonical key.
    fn plant_crash<const OBS: bool, const SHARDED: bool>(&mut self, p: ProcId, t: Cycles) {
        if t == 0 {
            self.apply_crash::<OBS, SHARDED>(p);
        } else if SHARDED {
            self.push_lane(p, t, event_ord(0, p as u64), EventKind::Crash(p));
        } else {
            self.schedule(t, EventKind::Crash(p));
        }
    }

    /// Run `on_start` on every processor in id order, then give each its
    /// first progress attempt.
    fn start_all<const OBS: bool, const FAULTS: bool, const SHARDED: bool>(&mut self) {
        for q in 0..self.model.p {
            if FAULTS && self.procs[q as usize].halted {
                continue;
            }
            self.run_handler::<OBS, _>(q, Cause::Start, |prog, ctx| prog.on_start(ctx));
        }
        for q in 0..self.model.p {
            self.advance::<OBS, FAULTS, SHARDED>(q);
        }
    }

    /// The classic event loop, monomorphized over observability. With
    /// `OBS` false every hook below folds away and the loop compiles to
    /// the uninstrumented hot path. `inline(never)` keeps the
    /// monomorphizations as separate compact functions instead of one
    /// merged body inside [`Sim::run`].
    #[inline(never)]
    fn drive<const OBS: bool, const FAULTS: bool>(&mut self) -> Result<(), SimError> {
        let p = self.model.p as usize;
        self.cal = Calendar::new(self.ring_span(), p + 16);
        let windows = self.hier.as_deref().map_or(1, |hs| hs.h.depth()) * p;
        self.in_flight_from = vec![0; windows];
        self.in_flight_to = vec![0; windows];
        self.outstanding_to = vec![0; p];
        self.dst_waiters = vec![VecDeque::new(); p];
        self.msg_slab = MsgSlab::for_procs(p);
        if FAULTS {
            for (cp, t) in self.crash_schedule() {
                self.plant_crash::<OBS, false>(cp, t);
            }
        }
        self.start_all::<OBS, FAULTS, false>();
        // Only a run with a metrics grid samples gauges between events.
        let gauges = OBS && self.obs.as_deref().is_some_and(|o| o.gauges.is_some());
        while let Some((t, ord, kind)) = self.cal.pop::<true>(Cycles::MAX) {
            self.count_event()?;
            debug_assert!(t >= self.now, "time must not run backwards");
            if gauges {
                self.sample_gauges_to(t);
            }
            self.now = t;
            self.process_event::<OBS, FAULTS, false>(ord, kind);
        }
        Ok(())
    }

    /// Run one event's handler: the only dispatch over [`EventKind`], for
    /// the classic loop and the lanes alike. What only the classic engine
    /// has — `Release` and `BarrierRelease` events, destination-side
    /// admission (`outstanding_to`, the waiter lists) — sits behind
    /// `!SHARDED`.
    #[inline]
    fn process_event<const OBS: bool, const FAULTS: bool, const SHARDED: bool>(
        &mut self,
        ord: u64,
        kind: EventKind,
    ) {
        match kind {
            EventKind::Release { src, dst } => {
                // Lanes admit from source rings and schedule no releases.
                debug_assert!(!SHARDED, "a release event on the lanes");
                if SHARDED {
                    return;
                }
                let (lvl, _) = self.pair_level(src, dst);
                let b = lvl * self.model.p as usize;
                self.in_flight_from[b + src as usize] -= 1;
                self.in_flight_to[b + dst as usize] -= 1;
                // Wake capacity waiters of this destination (FIFO; each
                // re-checks and re-queues if still blocked).
                self.wake_dst_waiters::<OBS, FAULTS>(dst as usize);
                // The source may have been stalled on its own window.
                if self.procs[src as usize].waiting_on_src {
                    self.procs[src as usize].waiting_on_src = false;
                    self.advance::<OBS, FAULTS, false>(src);
                }
            }
            EventKind::Arrive(slot) => {
                let dst = self.parked::<SHARDED>(slot).dst;
                if FAULTS && self.is_crashed(dst) {
                    // Dead interface: the message is lost, but its
                    // NI-buffer slot frees for blocked senders.
                    self.stats.msgs_dropped += 1;
                    self.lose_slot::<OBS, SHARDED>(slot);
                    if !SHARDED {
                        self.outstanding_to[dst as usize] -= 1;
                        self.wake_dst_waiters::<OBS, FAULTS>(dst as usize);
                    }
                    return;
                }
                self.stats.total_msgs += 1;
                self.link_arrival::<SHARDED>(dst, slot);
                if OBS {
                    self.note_arrival(dst, slot);
                }
                self.advance::<OBS, FAULTS, SHARDED>(dst);
            }
            EventKind::SendDone(p) => {
                self.procs[p as usize].engaged = false;
                self.advance::<OBS, FAULTS, SHARDED>(p);
            }
            EventKind::ComputeDone(p, tag) => {
                if FAULTS && self.is_crashed(p) {
                    return;
                }
                self.procs[p as usize].engaged = false;
                let cause = match self.records() {
                    Some(st) if OBS => Cause::Compute(st.cur_compute[p as usize]),
                    _ => Cause::Start,
                };
                self.run_handler::<OBS, _>(p, cause, |prog, ctx| prog.on_compute_done(tag, ctx));
                self.advance::<OBS, FAULTS, SHARDED>(p);
            }
            EventKind::RecvDone(p) => {
                if FAULTS && self.is_crashed(p) {
                    // The reception died with the processor; its NI
                    // slot was freed by the crash cleanup.
                    return;
                }
                let st = &mut self.procs[p as usize];
                st.engaged = false;
                let slot = std::mem::replace(&mut st.receiving, NO_SLOT);
                self.stats.procs[p as usize].msgs_recvd += 1;
                if !SHARDED {
                    self.outstanding_to[p as usize] -= 1;
                }
                let cause = if OBS {
                    self.record_delivery(slot)
                } else {
                    Cause::Start
                };
                let msg = self.free_slot::<SHARDED>(slot);
                if !SHARDED {
                    // The NI buffer slot is free: senders blocked on the
                    // outstanding bound may proceed.
                    self.wake_dst_waiters::<OBS, FAULTS>(p as usize);
                }
                self.run_handler::<OBS, _>(p, cause, |prog, ctx| prog.on_message(&msg, ctx));
                self.advance::<OBS, FAULTS, SHARDED>(p);
            }
            EventKind::BarrierRelease => {
                // Scheduled by the classic `check_barrier` only; the lane
                // driver calls the release at the replayed instant.
                self.release_pending = false;
                self.apply_barrier_release::<OBS, FAULTS, SHARDED>(self.now);
            }
            EventKind::TimerFire(p, tag) => {
                // Timers die with their processor: a halted or
                // crashed processor never observes the fire.
                if self.procs[p as usize].halted {
                    return;
                }
                let cause = if OBS {
                    self.timer_cause(p, ord_seq(ord))
                } else {
                    Cause::Start
                };
                self.run_handler::<OBS, _>(p, cause, |prog, ctx| prog.on_timer(tag, ctx));
                self.advance::<OBS, FAULTS, SHARDED>(p);
            }
            EventKind::Crash(p) => {
                debug_assert!(FAULTS, "crash events only exist under a fault plan");
                self.apply_crash::<OBS, SHARDED>(p);
            }
            EventKind::Wake(p) => {
                if SHARDED {
                    // A stalled sender woke itself at its source ring's
                    // head: the slot is free now, so the retried send
                    // re-polls the network first (what the classic
                    // `Release` arm does for it).
                    self.procs[p as usize].waiting_on_src = false;
                }
                self.advance::<OBS, FAULTS, SHARDED>(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{JsonlSink, SinkSpec};
    use std::path::{Path, PathBuf};

    /// Bytes a processor and bytes a message: what every processor costs
    /// before it does anything, and what a message occupies at each stop
    /// between `ctx.send` and `on_message` — a queued command, a release
    /// instant in its source's ring, a slab slot.
    #[test]
    fn per_processor_state_stays_small() {
        use std::mem::size_of;
        assert!(size_of::<Data>() <= 24);
        assert!(size_of::<Message>() <= 40);
        assert!(size_of::<Command>() <= 32);
        assert!(size_of::<Option<Command>>() <= 32);
        assert!(size_of::<Parked>() <= 48);
        assert!(size_of::<SrcRing>() <= 32);
        assert!(size_of::<ProcState>() <= 120);
        // Past a processor's first, a queued command is its fields, a
        // send's destination the step from the send before it: none to
        // the next processor, the whole `u32` at most.
        let send = |data| Command::Send {
            dst: 1,
            tag: 0,
            data,
        };
        assert!(inline::encoded_len(&send(Data::Empty), 0) <= 1);
        assert!(inline::encoded_len(&send(Data::U64(7)), 0) <= 9);
        assert!(inline::encoded_len(&send(Data::Empty), 1 << 20) <= 5);
        assert!(inline::encoded_len(&send(Data::U64(7)), 1 << 20) <= 13);
        assert!(inline::encoded_len(&Command::Compute { cycles: 3, tag: 4 }, 0) <= 17);
    }

    /// Processor 0 sends processor 1 three messages: 13 events.
    fn three_sends(start_seq: u64) -> Result<SimResult, SimError> {
        let mut sim = Sim::new(LogP::new(6, 2, 4, 2).unwrap(), SimConfig::default());
        sim.set_process(
            0,
            Box::new(crate::process::StartFn(|ctx| {
                for k in 0..3 {
                    ctx.send(1, 0, Data::U64(k));
                }
            })),
        );
        sim.seq = start_seq;
        sim.run()
    }

    /// Only relative order matters, so a classic run that starts its
    /// sequence numbers near their limit runs as one from 0 — until it
    /// needs a number past the limit, which is a typed error in every
    /// build rather than a key wrapping into the class bits.
    #[test]
    fn a_classic_run_past_its_event_keys_is_a_typed_error() {
        let fresh = three_sends(0).unwrap();
        assert_eq!(fresh.stats.events, 13);
        assert_eq!(three_sends(SEQ_LIMIT - 100).unwrap(), fresh);
        match three_sends(SEQ_LIMIT - 5) {
            Err(SimError::KeysExhausted { proc, limit, .. }) => {
                assert_eq!((proc, limit), (None, SEQ_LIMIT));
            }
            other => panic!("{other:?}"),
        }
    }

    /// A lane processor's counter at its limit hands out its last key,
    /// then fails the run typed — in every build, where the next key would
    /// have carried into the processor bits — before another event runs.
    #[test]
    fn a_lane_processor_past_its_event_keys_is_a_typed_error() {
        let config = SimConfig::default().with_shards(2);
        let mut sim = Sim::new(LogP::new(6, 2, 4, 4).unwrap(), config);
        sim.setup_lanes(2);
        sim.pctr[3] = PCTR_LIMIT - 1;
        sim.now = 7;
        let last = sim.sched::<true>(9, EventKind::Wake(3));
        assert_eq!(last, 4 << 36 | (PCTR_LIMIT - 1));
        assert_eq!(sim.overflow, None);
        sim.sched::<true>(9, EventKind::Wake(3));
        let exhausted = SimError::KeysExhausted {
            proc: Some(3),
            now: 7,
            limit: PCTR_LIMIT,
        };
        assert_eq!(sim.count_event(), Err(exhausted));
    }

    /// Every record kind: each processor computes, arms a timer, sends
    /// to every other one; the timer enters a barrier, whose release
    /// sends once more.
    struct Chatter;

    impl Process for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.compute(5, u64::from(ctx.me()));
            ctx.timer(7, 1);
            for k in 1..ctx.procs() {
                ctx.send((ctx.me() + k) % ctx.procs(), k, Data::U64(k.into()));
            }
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
            ctx.barrier();
        }
        fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send((ctx.me() + 5) % ctx.procs(), 9, Data::Empty);
        }
    }

    /// What a run of `Chatter` on `p` processors returns, and the bytes
    /// it leaves in the file of `config`'s sink — or, given `inline`, of
    /// that sink called on the engine thread in its place.
    fn sink_run(
        p: u32,
        config: &SimConfig,
        inline: Option<InlineSink>,
    ) -> (Result<SimResult, SimError>, Vec<u8>) {
        let Some(SinkSpec::Jsonl(path) | SinkSpec::Perfetto(path)) = &config.sink else {
            panic!("a file sink");
        };
        let mut sim = Sim::new(LogP::new(6, 2, 4, p).unwrap(), config.clone());
        if let Some(sink) = inline {
            let obs = sim.obs.as_deref_mut().expect("a sink is observation");
            let records = obs.records.as_deref_mut().expect("and a record pipeline");
            // The threaded sink is joined, its writer done with the file,
            // before the inline sink creates it again.
            records.sink = Box::new(NullSink);
            records.sink = sink(path);
        }
        if p > 2 {
            sim.set_all(|_| Box::new(Chatter));
        }
        let res = sim.run();
        let bytes = std::fs::read(path).expect("the sink wrote its file");
        let _ = std::fs::remove_file(path);
        (res, bytes)
    }

    /// A file sink called on the engine thread, for a path.
    type InlineSink = fn(&Path) -> Box<dyn ObsSink>;

    fn inline_jsonl(path: &Path) -> Box<dyn ObsSink> {
        Box::new(JsonlSink::create(path))
    }

    fn inline_perfetto(path: &Path) -> Box<dyn ObsSink> {
        Box::new(crate::perfetto::PerfettoSink::create(path))
    }

    fn sink_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("logp_engine_{name}_{}", std::process::id()))
    }

    /// A file sink on its writer thread writes what it writes called on
    /// the engine thread, on both engines, under every sampling policy,
    /// over many batches (P = 64: 4,160 messages, 10 batches unsampled)
    /// and over none (P = 2, idle: no record at all).
    #[test]
    fn file_sink_writes_the_inline_bytes_under_every_sampling_policy() {
        let policies = [
            ObsSampling::All,
            ObsSampling::Stride(3),
            ObsSampling::ProcSet(vec![0, 5, 17]),
            ObsSampling::HeadTail(3),
            ObsSampling::Reservoir { k: 50, seed: 7 },
        ];
        for (p, shards) in [(64, 0), (64, 4), (2, 0)] {
            for policy in &policies {
                for (spec, inline) in [
                    (
                        SinkSpec::Jsonl(sink_path("jsonl")),
                        inline_jsonl as InlineSink,
                    ),
                    (SinkSpec::Perfetto(sink_path("perfetto")), inline_perfetto),
                ] {
                    let config = SimConfig::default()
                        .with_sink(spec)
                        .with_sampling(policy.clone())
                        .with_shards(shards);
                    let (threaded, bytes) = sink_run(p, &config, None);
                    let (res, inline_bytes) = sink_run(p, &config, Some(inline));
                    assert_eq!(threaded.unwrap(), res.unwrap());
                    assert_eq!(bytes, inline_bytes, "P = {p}, {shards} lanes, {policy:?}");
                }
            }
        }
    }

    /// A run that ends in another error still leaves what it streamed in
    /// the file: the inline sink's bytes, a prefix of the whole run's.
    #[test]
    fn file_sink_of_a_failed_run_keeps_its_streamed_prefix() {
        let path = sink_path("failed");
        let whole = SimConfig::default().with_sink(SinkSpec::Jsonl(path));
        let (res, all) = sink_run(64, &whole, None);
        res.unwrap();
        let cut = SimConfig {
            max_events: 12_000,
            ..whole
        };
        let (res, prefix) = sink_run(64, &cut, None);
        let cut_short = SimError::MaxEventsExceeded { limit: 12_000 };
        assert_eq!(res.err(), Some(cut_short));
        let (res, inline) = sink_run(64, &cut, Some(inline_jsonl));
        assert!(res.is_err());
        assert_eq!(prefix, inline);
        assert!(prefix.len() > 4 << 16 && prefix.len() < all.len());
        assert!(all.starts_with(&prefix));
    }

    /// A file sink that cannot create its file fails the run with
    /// `SimError::Sink`.
    #[test]
    fn file_sink_at_an_uncreatable_path_fails_the_run() {
        let path = std::env::temp_dir()
            .join("logp_no_such_dir")
            .join("run.jsonl");
        for spec in [
            SinkSpec::Jsonl(path.clone()),
            SinkSpec::Perfetto(path.clone()),
        ] {
            let mut sim = Sim::new(
                LogP::new(6, 2, 4, 8).unwrap(),
                SimConfig::default().with_sink(spec),
            );
            sim.set_all(|_| Box::new(Chatter));
            match sim.run() {
                Err(SimError::Sink(msg)) => assert!(msg.starts_with("create "), "{msg}"),
                other => panic!("{other:?}"),
            }
        }
    }
}
